#include "socgen/hls/serialize.hpp"

#include "socgen/common/binio.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

namespace socgen::hls {
namespace {

// The byte-stream primitives (BinWriter/BinReader) live in
// common/binio.hpp. The reader
// throws CodecError; decodeHlsResult converts that to ArtifactError so
// store callers keep one error type for "corrupt object".

// ---------------------------------------------------------------------------
// Per-type encode/decode pairs, innermost first.

void putResources(BinWriter& w, const ResourceEstimate& r) {
    w.i64(r.lut);
    w.i64(r.ff);
    w.i64(r.bram18);
    w.i64(r.dsp);
}

ResourceEstimate getResources(BinReader& r) {
    ResourceEstimate e;
    e.lut = r.i64();
    e.ff = r.i64();
    e.bram18 = r.i64();
    e.dsp = r.i64();
    return e;
}

void putPort(BinWriter& w, const KernelPort& p) {
    w.str(p.name);
    w.u32(static_cast<std::uint32_t>(p.kind));
    w.u32(p.width);
}

KernelPort getPort(BinReader& r) {
    KernelPort p;
    p.name = r.str();
    p.kind = static_cast<PortKind>(r.u32());
    p.width = r.u32();
    return p;
}

void putInstr(BinWriter& w, const Instr& ins) {
    w.u32(static_cast<std::uint32_t>(ins.op));
    w.u32(static_cast<std::uint32_t>(ins.bop));
    w.u32(static_cast<std::uint32_t>(ins.uop));
    w.u32(ins.dst);
    w.u32(ins.a);
    w.u32(ins.b);
    w.u32(ins.c);
    w.i64(ins.imm);
    w.u32(ins.port);
    w.u32(ins.array);
    w.u32(ins.target);
}

Instr getInstr(BinReader& r) {
    Instr ins;
    ins.op = static_cast<Opcode>(r.u32());
    ins.bop = static_cast<BinOp>(r.u32());
    ins.uop = static_cast<UnOp>(r.u32());
    ins.dst = r.u32();
    ins.a = r.u32();
    ins.b = r.u32();
    ins.c = r.u32();
    ins.imm = r.i64();
    ins.port = r.u32();
    ins.array = r.u32();
    ins.target = r.u32();
    return ins;
}

void putProgram(BinWriter& w, const Program& p) {
    w.str(p.kernelName);
    w.vec(p.instrs, [&](const Instr& ins) { putInstr(w, ins); });
    w.u32(p.registerCount);
    w.vec(p.varWidth, [&](unsigned v) { w.u32(v); });
    w.vec(p.arrays, [&](const ArraySpec& a) {
        w.u64(a.depth);
        w.u32(a.width);
    });
    w.vec(p.ports, [&](const KernelPort& kp) { putPort(w, kp); });
    // Process-network payload (all four tables empty for plain kernels;
    // the recursion is one level deep in practice — child programs of a
    // network are plain kernels).
    w.vec(p.processNames, [&](const std::string& n) { w.str(n); });
    w.vec(p.processPrograms, [&](const Program& child) { putProgram(w, child); });
    w.vec(p.channels, [&](const ProgramChannel& c) {
        w.str(c.name);
        w.u32(c.fromProcess);
        w.u32(c.fromPort);
        w.u32(c.toProcess);
        w.u32(c.toPort);
        w.u32(c.width);
        w.u32(c.depth);
        w.u32(c.initialTokens);
    });
    w.vec(p.bindings, [&](const ProgramBinding& b) {
        w.u32(b.networkPort);
        w.u32(b.process);
        w.u32(b.processPort);
    });
}

Program getProgram(BinReader& r) {
    Program p;
    p.kernelName = r.str();
    p.instrs = r.vec<Instr>([&] { return getInstr(r); });
    p.registerCount = r.u32();
    p.varWidth = r.vec<unsigned>([&] { return r.u32(); });
    p.arrays = r.vec<ArraySpec>([&] {
        ArraySpec a;
        a.depth = r.u64();
        a.width = r.u32();
        return a;
    });
    p.ports = r.vec<KernelPort>([&] { return getPort(r); });
    p.processNames = r.vec<std::string>([&] { return r.str(); });
    p.processPrograms = r.vec<Program>([&] { return getProgram(r); });
    p.channels = r.vec<ProgramChannel>([&] {
        ProgramChannel c;
        c.name = r.str();
        c.fromProcess = r.u32();
        c.fromPort = r.u32();
        c.toProcess = r.u32();
        c.toPort = r.u32();
        c.width = r.u32();
        c.depth = r.u32();
        c.initialTokens = r.u32();
        return c;
    });
    p.bindings = r.vec<ProgramBinding>([&] {
        ProgramBinding b;
        b.networkPort = r.u32();
        b.process = r.u32();
        b.processPort = r.u32();
        return b;
    });
    if (p.processNames.size() != p.processPrograms.size()) {
        throw CodecError("program: process name/program tables disagree");
    }
    return p;
}

void putDfgOp(BinWriter& w, const DfgOp& op) {
    w.u32(static_cast<std::uint32_t>(op.kind));
    w.u32(static_cast<std::uint32_t>(op.bop));
    w.u32(static_cast<std::uint32_t>(op.uop));
    w.u32(op.width);
    w.u32(op.array);
    w.u32(op.port);
    w.u32(op.loop);
    w.i64(op.loopLatency);
    w.vec(op.deps, [&](OpId d) { w.u32(d); });
    w.vec(op.varReads, [&](VarId v) { w.u32(v); });
    w.u32(op.assignsVar);
    w.u32(op.expr);
    w.u32(op.indexExpr);
    w.u32(op.valueExpr);
}

DfgOp getDfgOp(BinReader& r) {
    DfgOp op;
    op.kind = static_cast<OpKind>(r.u32());
    op.bop = static_cast<BinOp>(r.u32());
    op.uop = static_cast<UnOp>(r.u32());
    op.width = r.u32();
    op.array = r.u32();
    op.port = r.u32();
    op.loop = r.u32();
    op.loopLatency = r.i64();
    op.deps = r.vec<OpId>([&] { return r.u32(); });
    op.varReads = r.vec<VarId>([&] { return r.u32(); });
    op.assignsVar = r.u32();
    op.expr = r.u32();
    op.indexExpr = r.u32();
    op.valueExpr = r.u32();
    return op;
}

void putBlockSchedule(BinWriter& w, const BlockSchedule& b) {
    w.vec(b.dfg.ops, [&](const DfgOp& op) { putDfgOp(w, op); });
    w.vec(b.startCycle, [&](std::int64_t c) { w.i64(c); });
    w.i64(b.length);
}

BlockSchedule getBlockSchedule(BinReader& r) {
    BlockSchedule b;
    b.dfg.ops = r.vec<DfgOp>([&] { return getDfgOp(r); });
    b.startCycle = r.vec<std::int64_t>([&] { return r.i64(); });
    b.length = r.i64();
    return b;
}

void putSchedule(BinWriter& w, const KernelSchedule& s) {
    w.vec(s.loops, [&](const LoopSchedule& loop) {
        w.u32(loop.stmt);
        w.str(loop.inductionVar);
        w.i64(loop.tripCount);
        w.u8(loop.tripExact ? 1 : 0);
        putBlockSchedule(w, loop.body);
        w.u8(loop.pipelined ? 1 : 0);
        w.i64(loop.ii);
        w.i64(loop.totalCycles);
    });
    putBlockSchedule(w, s.top);
    w.i64(s.totalLatencyCycles);
}

KernelSchedule getSchedule(BinReader& r) {
    KernelSchedule s;
    s.loops = r.vec<LoopSchedule>([&] {
        LoopSchedule loop;
        loop.stmt = r.u32();
        loop.inductionVar = r.str();
        loop.tripCount = r.i64();
        loop.tripExact = r.u8() != 0;
        loop.body = getBlockSchedule(r);
        loop.pipelined = r.u8() != 0;
        loop.ii = r.i64();
        loop.totalCycles = r.i64();
        return loop;
    });
    s.top = getBlockSchedule(r);
    s.totalLatencyCycles = r.i64();
    return s;
}

void putBlockBinding(BinWriter& w, const BlockBinding& b) {
    w.vec(b.unitOf, [&](int u) { w.u32(static_cast<std::uint32_t>(u)); });
    w.u32(static_cast<std::uint32_t>(b.mulUnits));
    w.u32(static_cast<std::uint32_t>(b.divUnits));
}

BlockBinding getBlockBinding(BinReader& r) {
    BlockBinding b;
    b.unitOf = r.vec<int>([&] { return static_cast<int>(r.u32()); });
    b.mulUnits = static_cast<int>(r.u32());
    b.divUnits = static_cast<int>(r.u32());
    return b;
}

void putBinding(BinWriter& w, const KernelBinding& b) {
    w.vec(b.loopBindings, [&](const BlockBinding& lb) { putBlockBinding(w, lb); });
    putBlockBinding(w, b.topBinding);
    w.u32(static_cast<std::uint32_t>(b.mulUnits));
    w.u32(static_cast<std::uint32_t>(b.divUnits));
}

KernelBinding getBinding(BinReader& r) {
    KernelBinding b;
    b.loopBindings = r.vec<BlockBinding>([&] { return getBlockBinding(r); });
    b.topBinding = getBlockBinding(r);
    b.mulUnits = static_cast<int>(r.u32());
    b.divUnits = static_cast<int>(r.u32());
    return b;
}

void putNetlist(BinWriter& w, const rtl::Netlist& n) {
    w.str(n.name());
    // Drivers are not serialized: addCell() re-derives them from each
    // cell's output list during decode.
    w.vec(n.nets(), [&](const rtl::Net& net) {
        w.str(net.name);
        w.u32(net.width);
    });
    const auto putPins = [&](std::span<const rtl::NetId> pins) {
        w.u64(pins.size());
        for (const rtl::NetId id : pins) {
            w.u32(id);
        }
    };
    w.vec(n.cells(), [&](const rtl::Cell& cell) {
        w.str(cell.name);
        w.u32(static_cast<std::uint32_t>(cell.kind));
        w.u32(cell.width);
        putPins(n.inputs(cell));
        putPins(n.outputs(cell));
        w.i64(cell.param);
    });
    w.vec(n.ports(), [&](const rtl::Port& port) {
        w.str(port.name);
        w.u8(port.dir == rtl::PortDir::Out ? 1 : 0);
        w.u32(port.width);
        w.u32(port.net);
    });
}

rtl::Netlist getNetlist(BinReader& r) {
    rtl::Netlist n(r.str());
    try {
        const std::uint64_t netCount = r.size();
        n.reserve(netCount, 0, 0);
        for (std::uint64_t i = 0; i < netCount; ++i) {
            std::string name = r.str();
            const unsigned width = r.u32();
            (void)n.addNet(std::move(name), width);
        }
        const std::uint64_t cellCount = r.size();
        // Most cells have three pins (two operands, one result).
        n.reserve(netCount, cellCount, 3 * cellCount);
        std::vector<rtl::NetId> pins;  // one cell's inputs, then its outputs
        const auto readPins = [&] {
            const std::uint64_t count = r.size();
            for (std::uint64_t k = 0; k < count; ++k) {
                pins.push_back(r.u32());
            }
            return count;
        };
        for (std::uint64_t i = 0; i < cellCount; ++i) {
            std::string name = r.str();
            const auto kind = static_cast<rtl::CellKind>(r.u32());
            const unsigned width = r.u32();
            pins.clear();
            const std::uint64_t inputCount = readPins();
            readPins();
            const std::int64_t param = r.i64();
            (void)n.addCell(std::move(name), kind, width,
                            std::span(pins).first(inputCount),
                            std::span(pins).subspan(inputCount), param);
        }
        const std::uint64_t portCount = r.size();
        for (std::uint64_t i = 0; i < portCount; ++i) {
            std::string name = r.str();
            const rtl::PortDir dir = r.u8() != 0 ? rtl::PortDir::Out : rtl::PortDir::In;
            const unsigned width = r.u32();
            const rtl::NetId net = r.u32();
            n.addPort(std::move(name), dir, width, net);
        }
    } catch (const CodecError&) {
        // Framing errors keep their own type; the top-level decode
        // converts them for store callers.
        throw;
    } catch (const Error& e) {
        // addCell/addPort structural checks (out-of-range ids, duplicate
        // drivers) mean the payload is corrupt even if well-framed.
        throw ArtifactError(std::string("corrupt netlist encoding: ") + e.what());
    }
    return n;
}

} // namespace

std::string encodeHlsResult(const HlsResult& result) {
    BinWriter w;
    w.u32(kHlsResultCodecVersion);
    w.str(result.kernelName);
    w.str(result.vhdl);
    w.str(result.verilog);
    w.str(result.directiveText);
    w.str(result.reportText);
    w.f64(result.toolSeconds);
    putResources(w, result.resources);
    putProgram(w, result.program);
    putSchedule(w, result.schedule);
    putBinding(w, result.binding);
    putNetlist(w, result.netlist);
    return w.take();
}

HlsResult decodeHlsResult(std::string_view bytes) {
    try {
        BinReader r(bytes);
        const std::uint32_t version = r.u32();
        if (version != kHlsResultCodecVersion) {
            throw ArtifactError(format("codec version mismatch: payload v%u, expected v%u",
                                       version, kHlsResultCodecVersion));
        }
        HlsResult result;
        result.kernelName = r.str();
        result.vhdl = r.str();
        result.verilog = r.str();
        result.directiveText = r.str();
        result.reportText = r.str();
        result.toolSeconds = r.f64();
        result.resources = getResources(r);
        result.program = getProgram(r);
        result.schedule = getSchedule(r);
        result.binding = getBinding(r);
        result.netlist = getNetlist(r);
        r.expectEnd();
        return result;
    } catch (const CodecError& e) {
        throw ArtifactError(e.what());
    }
}

Digest128 fingerprintKernel(const Kernel& kernel) {
    HashStream h;
    h.field(std::string_view("socgen-kernel-v1"));
    h.field(kernel.name());
    h.field(static_cast<std::uint64_t>(kernel.ports().size()));
    for (const auto& p : kernel.ports()) {
        h.field(p.name);
        h.field(static_cast<std::uint64_t>(p.kind));
        h.field(static_cast<std::uint64_t>(p.width));
    }
    h.field(static_cast<std::uint64_t>(kernel.vars().size()));
    for (const auto& v : kernel.vars()) {
        h.field(v.name);
        h.field(static_cast<std::uint64_t>(v.width));
    }
    h.field(static_cast<std::uint64_t>(kernel.arrays().size()));
    for (const auto& a : kernel.arrays()) {
        h.field(a.name);
        h.field(static_cast<std::uint64_t>(a.depth));
        h.field(static_cast<std::uint64_t>(a.width));
    }
    h.field(static_cast<std::uint64_t>(kernel.exprs().size()));
    for (const auto& e : kernel.exprs()) {
        h.field(static_cast<std::uint64_t>(e.kind));
        h.field(e.value);
        h.field(static_cast<std::uint64_t>(e.bop));
        h.field(static_cast<std::uint64_t>(e.uop));
        h.field(static_cast<std::uint64_t>(e.var));
        h.field(static_cast<std::uint64_t>(e.port));
        h.field(static_cast<std::uint64_t>(e.array));
        h.field(static_cast<std::uint64_t>(e.a));
        h.field(static_cast<std::uint64_t>(e.b));
        h.field(static_cast<std::uint64_t>(e.c));
    }
    h.field(static_cast<std::uint64_t>(kernel.stmts().size()));
    for (const auto& s : kernel.stmts()) {
        h.field(static_cast<std::uint64_t>(s.kind));
        h.field(static_cast<std::uint64_t>(s.var));
        h.field(static_cast<std::uint64_t>(s.port));
        h.field(static_cast<std::uint64_t>(s.array));
        h.field(static_cast<std::uint64_t>(s.index));
        h.field(static_cast<std::uint64_t>(s.value));
        h.field(static_cast<std::uint64_t>(s.body.size()));
        for (const StmtId id : s.body) {
            h.field(static_cast<std::uint64_t>(id));
        }
        h.field(static_cast<std::uint64_t>(s.elseBody.size()));
        for (const StmtId id : s.elseBody) {
            h.field(static_cast<std::uint64_t>(id));
        }
    }
    h.field(static_cast<std::uint64_t>(kernel.body().size()));
    for (const StmtId id : kernel.body()) {
        h.field(static_cast<std::uint64_t>(id));
    }
    return h.digest();
}

Digest128 fingerprintDirectives(const Directives& d) {
    HashStream h;
    h.field(std::string_view("socgen-directives-v1"));
    h.field(d.clockNs);
    h.field(static_cast<std::uint64_t>(d.scheduler));
    h.field(static_cast<std::uint64_t>(d.pipelineLoops ? 1 : 0));
    h.field(static_cast<std::uint64_t>(d.enableOptimizer ? 1 : 0));
    h.field(static_cast<std::int64_t>(d.maxMulUnits));
    h.field(static_cast<std::int64_t>(d.maxDivUnits));
    h.field(static_cast<std::int64_t>(d.memPortsPerArray));
    h.field(d.defaultTripCount);
    // std::map iterates in key order, so the hash is order-independent of
    // insertion history.
    h.field(static_cast<std::uint64_t>(d.tripCountHints.size()));
    for (const auto& [loop, trip] : d.tripCountHints) {
        h.field(loop);
        h.field(trip);
    }
    h.field(static_cast<std::uint64_t>(d.unrollFactors.size()));
    for (const auto& [loop, factor] : d.unrollFactors) {
        h.field(loop);
        h.field(static_cast<std::int64_t>(factor));
    }
    h.field(static_cast<std::uint64_t>(d.interfaces.size()));
    for (const auto& [port, protocol] : d.interfaces) {
        h.field(port);
        h.field(static_cast<std::uint64_t>(protocol));
    }
    return h.digest();
}

Digest128 fingerprintNetwork(const ProcessNetwork& network) {
    HashStream h;
    h.field(std::string_view("socgen-network-v1"));
    h.field(network.name());
    h.field(static_cast<std::uint64_t>(network.processes().size()));
    for (const Process& p : network.processes()) {
        h.field(p.name);
        const Digest128 k = fingerprintKernel(p.kernel);
        h.field(k.hi);
        h.field(k.lo);
    }
    h.field(static_cast<std::uint64_t>(network.channels().size()));
    for (const NetworkChannel& c : network.channels()) {
        h.field(c.name);
        h.field(c.fromProcess);
        h.field(c.fromPort);
        h.field(c.toProcess);
        h.field(c.toPort);
        h.field(static_cast<std::uint64_t>(c.width));
        h.field(static_cast<std::uint64_t>(c.depth));
        h.field(static_cast<std::uint64_t>(c.initialTokens));
    }
    h.field(static_cast<std::uint64_t>(network.bindings().size()));
    for (const NetworkBinding& b : network.bindings()) {
        h.field(b.networkPort);
        h.field(b.process);
        h.field(b.processPort);
    }
    return h.digest();
}

} // namespace socgen::hls
