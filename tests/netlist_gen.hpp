#pragma once

// Seeded random-netlist generator for the differential simulation suite
// (test_rtl_diff_sim.cpp) and the backend benchmarks. Every construct
// the HLS code generator can emit appears here — the full combinational
// op set, registers with and without enables (including feedback loops
// closed through registers), synchronous BRAMs, and FSM cells — so a
// divergence between the event-driven and compiled backends on any
// generated design also reproduces on some seed of this generator.
//
// Determinism: the generator uses its own splitmix64 stream (not
// std::uniform_int_distribution, whose mapping is implementation
// defined), so a seed names the same netlist on every toolchain.

#include "socgen/rtl/netlist.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace socgen::testing {

/// Deterministic 64-bit PRNG (splitmix64).
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform-ish value in [0, n); n == 0 yields 0.
    std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

    /// Value in [lo, hi] inclusive.
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
        return lo + below(hi - lo + 1);
    }

private:
    std::uint64_t state_;
};

struct NetlistGenOptions {
    unsigned inputPorts = 4;
    unsigned outputPorts = 4;
    unsigned combCells = 120;
    unsigned regs = 12;       ///< registers; half close feedback loops
    unsigned brams = 2;
    unsigned fsms = 1;
    unsigned maxWidth = 64;
    /// Combinational cells on >64-bit nets (65..128). Both engines track
    /// the low 64 bits of such a net; the corpus pins that they agree.
    /// Also adds one wide input port so setInput truncation is covered.
    unsigned wideBuses = 0;
    /// Pairs of BRAMs sharing address and write-data nets with
    /// independent write enables over a tiny depth. Each cell keeps its
    /// own storage, so the pair exercises same-address read/write
    /// collisions within each port and divergence through the enables
    /// on nearly every cycle.
    unsigned bramPairs = 0;
    /// Length of an extra serial combinational chain (each cell consumes
    /// the previous one's output), forcing hundreds of levelization
    /// levels with one-op bands — the worst case for the per-level
    /// worklist sweep.
    unsigned chainDepth = 0;
};

/// Builds a structurally valid random netlist from `seed`. The netlist
/// passes Netlist::check(): every net is driven, feedback paths are
/// closed only through registers, and BRAM address inputs are narrowed
/// so addresses always fall inside the memory depth.
inline rtl::Netlist randomNetlist(std::uint64_t seed, NetlistGenOptions opt = {}) {
    using namespace rtl;
    SplitMix64 rng(seed ^ 0xd1b54a32d192ed03ULL);
    Netlist n("rand" + std::to_string(seed));

    const auto width = [&]() -> unsigned {
        // Mix of narrow control-ish and wide datapath widths.
        const std::uint64_t pick = rng.below(4);
        if (pick == 0) {
            return 1;
        }
        if (pick == 1) {
            return static_cast<unsigned>(rng.range(2, 8));
        }
        return static_cast<unsigned>(rng.range(9, opt.maxWidth));
    };

    std::vector<NetId> pool;  // nets usable as cell inputs

    for (unsigned i = 0; i < opt.inputPorts; ++i) {
        const unsigned w = i == 0 ? 1 : width();  // guarantee one 1-bit input
        const NetId net = n.addNet("in" + std::to_string(i), w);
        n.addPort("in" + std::to_string(i), PortDir::In, w, net);
        pool.push_back(net);
    }
    if (opt.wideBuses > 0) {
        const unsigned w = static_cast<unsigned>(rng.range(65, 128));
        const NetId net = n.addNet("inw", w);
        n.addPort("inw", PortDir::In, w, net);
        pool.push_back(net);
    }

    // Pre-created output nets of the sequential cells, so combinational
    // logic can consume them (feedback closed through state).
    std::vector<NetId> regOuts, bramOuts, fsmOuts;
    std::vector<unsigned> regWidths, bramWidths, fsmWidths;
    for (unsigned i = 0; i < opt.regs; ++i) {
        const unsigned w = width();
        regOuts.push_back(n.addNet("rq" + std::to_string(i), w));
        regWidths.push_back(w);
        pool.push_back(regOuts.back());
    }
    for (unsigned i = 0; i < opt.brams; ++i) {
        const unsigned w = width();
        bramOuts.push_back(n.addNet("mq" + std::to_string(i), w));
        bramWidths.push_back(w);
        pool.push_back(bramOuts.back());
    }
    std::vector<NetId> pairOuts;
    std::vector<unsigned> pairWidths;
    for (unsigned i = 0; i < opt.bramPairs * 2; ++i) {
        const unsigned w = width();
        pairOuts.push_back(n.addNet("pq" + std::to_string(i), w));
        pairWidths.push_back(w);
        pool.push_back(pairOuts.back());
    }
    for (unsigned i = 0; i < opt.fsms; ++i) {
        const unsigned w = static_cast<unsigned>(rng.range(2, 8));
        fsmOuts.push_back(n.addNet("sq" + std::to_string(i), w));
        fsmWidths.push_back(w);
        pool.push_back(fsmOuts.back());
    }

    const auto anyNet = [&]() { return pool[rng.below(pool.size())]; };

    static constexpr CellKind kCombKinds[] = {
        CellKind::Not, CellKind::And, CellKind::Or,  CellKind::Xor, CellKind::Add,
        CellKind::Sub, CellKind::Mul, CellKind::Div, CellKind::Mod, CellKind::Shl,
        CellKind::Shr, CellKind::Eq,  CellKind::Ne,  CellKind::Lt,  CellKind::Le,
        CellKind::Gt,  CellKind::Ge,  CellKind::Mux};

    unsigned counter = 0;
    const auto fresh = [&](unsigned w) {
        return n.addNet("t" + std::to_string(counter++), w);
    };

    for (unsigned i = 0; i < opt.combCells; ++i) {
        const unsigned w = width();
        if (rng.below(8) == 0) {
            const NetId out = fresh(w);
            n.addCell("const" + std::to_string(i), CellKind::Const, w, {}, {out},
                      static_cast<std::int64_t>(rng.next()));
            pool.push_back(out);
            continue;
        }
        const CellKind kind = kCombKinds[rng.below(std::size(kCombKinds))];
        std::vector<NetId> ins;
        const int arity = pinSpec(kind).inputs;
        for (int k = 0; k < arity; ++k) {
            ins.push_back(anyNet());
        }
        const NetId out = fresh(w);
        n.addCell("c" + std::to_string(i), kind, w, ins, std::span(&out, 1));
        pool.push_back(out);
    }

    for (unsigned i = 0; i < opt.wideBuses; ++i) {
        const unsigned w = static_cast<unsigned>(rng.range(65, 128));
        const NetId out = fresh(w);
        if (rng.below(4) == 0) {
            n.addCell("wconst" + std::to_string(i), CellKind::Const, w, {}, {out},
                      static_cast<std::int64_t>(rng.next()));
        } else {
            static constexpr CellKind kWideKinds[] = {CellKind::Add, CellKind::Sub,
                                                      CellKind::Mul, CellKind::Xor,
                                                      CellKind::Or,  CellKind::Shl};
            const CellKind kind = kWideKinds[rng.below(std::size(kWideKinds))];
            n.addCell("wide" + std::to_string(i), kind, w, {anyNet(), anyNet()}, {out});
        }
        pool.push_back(out);
    }

    if (opt.chainDepth > 0) {
        const unsigned w = static_cast<unsigned>(rng.range(16, 48));
        NetId prev = anyNet();
        static constexpr CellKind kChainKinds[] = {CellKind::Add, CellKind::Xor,
                                                   CellKind::Sub, CellKind::Or};
        for (unsigned i = 0; i < opt.chainDepth; ++i) {
            const NetId out = fresh(w);
            n.addCell("chain" + std::to_string(i),
                      kChainKinds[rng.below(std::size(kChainKinds))], w, {prev, anyNet()},
                      {out});
            prev = out;
            pool.push_back(out);
        }
    }

    for (unsigned i = 0; i < opt.regs; ++i) {
        std::vector<NetId> ins{anyNet()};
        if (rng.below(2) == 0) {
            ins.push_back(anyNet());  // enable
        }
        n.addCell("reg" + std::to_string(i), CellKind::Reg, regWidths[i], ins,
                  std::span(&regOuts[i], 1));
    }

    for (unsigned i = 0; i < opt.brams; ++i) {
        // Narrow the address through an And cell so it always stays
        // below the depth (the simulators throw on out-of-range).
        const unsigned addrW = static_cast<unsigned>(rng.range(3, 7));
        const NetId addr = fresh(addrW);
        n.addCell("maddr" + std::to_string(i), CellKind::And, addrW, {anyNet(), anyNet()},
                  {addr});
        n.addCell("bram" + std::to_string(i), CellKind::Bram, bramWidths[i],
                  {addr, anyNet(), anyNet()}, {bramOuts[i]},
                  static_cast<std::int64_t>(1ULL << addrW));
    }

    for (unsigned i = 0; i < opt.bramPairs; ++i) {
        // Two BRAMs on one shared address and write-data net with
        // independent write enables over a tiny memory: with a depth of
        // 4-8 words, same-address write+read collisions (the
        // read-after-write path) happen almost every cycle, and the two
        // cells diverge only through their enables — any engine bug that
        // mixes up write gating or RAW ordering shows up as the pair
        // disagreeing between backends.
        const unsigned addrW = static_cast<unsigned>(rng.range(2, 3));
        const NetId addr = fresh(addrW);
        n.addCell("paddr" + std::to_string(i), CellKind::And, addrW, {anyNet(), anyNet()},
                  {addr});
        const NetId wdata = anyNet();
        for (unsigned port = 0; port < 2; ++port) {
            const unsigned idx = i * 2 + port;
            n.addCell("pbram" + std::to_string(idx), CellKind::Bram, pairWidths[idx],
                      {addr, wdata, anyNet()}, {pairOuts[idx]},
                      static_cast<std::int64_t>(1ULL << addrW));
        }
    }

    for (unsigned i = 0; i < opt.fsms; ++i) {
        std::vector<NetId> status;
        const unsigned statusCount = static_cast<unsigned>(rng.range(1, 3));
        for (unsigned k = 0; k < statusCount; ++k) {
            status.push_back(anyNet());
        }
        n.addCell("fsm" + std::to_string(i), CellKind::Fsm, fsmWidths[i], status,
                  std::span(&fsmOuts[i], 1), static_cast<std::int64_t>(rng.range(2, 16)));
    }

    for (unsigned i = 0; i < opt.outputPorts; ++i) {
        // Only driven nets may be output ports; everything after the
        // input ports qualifies.
        const NetId net =
            pool[opt.inputPorts + rng.below(pool.size() - opt.inputPorts)];
        n.addPort("out" + std::to_string(i), PortDir::Out, n.net(net).width, net);
    }

    n.check();
    return n;
}

/// The diff-sim sweep's seed list: 40 seeds, so every backend is
/// exercised on the same corpus.
inline std::vector<std::uint64_t> diffSimSeeds() {
    std::vector<std::uint64_t> seeds;
    seeds.reserve(40);
    for (std::uint64_t i = 1; i <= 40; ++i) {
        seeds.push_back(i * 7919ULL);  // arbitrary but stable spacing
    }
    return seeds;
}

/// Deterministic per-seed shape for the sweep: every seed gets a
/// different mix of sizes, and the newer constructs (wide buses, BRAM
/// collision pairs, deep chains) each appear on a fixed subset of seeds
/// so a corpus regression names the construct in the failing seed.
inline NetlistGenOptions sweepOptions(std::uint64_t seed) {
    NetlistGenOptions opt;
    SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    opt.combCells = static_cast<unsigned>(rng.range(80, 200));
    opt.regs = static_cast<unsigned>(rng.range(8, 20));
    opt.brams = static_cast<unsigned>(rng.range(1, 3));
    opt.fsms = static_cast<unsigned>(rng.below(3));
    if (seed % 3 == 0) {
        opt.wideBuses = static_cast<unsigned>(rng.range(2, 4));
    }
    if (seed % 4 == 0) {
        opt.bramPairs = static_cast<unsigned>(rng.range(1, 2));
    }
    if (seed % 5 == 0) {
        opt.chainDepth = static_cast<unsigned>(rng.range(100, 250));
    }
    return opt;
}

} // namespace socgen::testing
