// Differential test between the RTL simulation backends: the
// event-driven reference engine (NetlistSimulator), the compiled
// levelized engine (CompiledSim), and — when a host compiler is
// available — the generated-C++ engine (CodegenSim) must produce
// cycle-identical signal traces — every net, every cycle — and
// identical final memory state on every design we can throw at them:
// seeded random netlists covering the full cell vocabulary, and the
// HLS netlists of all four Otsu case study architectures.
// ctest label: diff-sim.

#include "netlist_gen.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu_project.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/rtl/codegen_emit.hpp"
#include "socgen/rtl/codegen_sim.hpp"
#include "socgen/rtl/compiled_sim.hpp"
#include "socgen/rtl/netlist_sim.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/sim_backend.hpp"
#include "socgen/rtl/vcd.hpp"
#include "socgen/sim/engine.hpp"
#include "socgen/soc/rtl_core.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace socgen::rtl {
namespace {

/// Per-cycle stimulus: port name -> value to drive before the step.
using Stimulus = std::map<std::string, std::uint64_t>;

/// True once per process: is the generated-C++ backend usable here? The
/// no-compiler CI leg (SOCGEN_CXX=/nonexistent) runs the same suite as
/// a two-way comparison; everywhere else the suite is three-way.
bool codegenUsable() {
    static const bool usable = codegenToolchainAvailable();
    return usable;
}

/// Strict CodegenSim construction for the differential suite: the
/// toolchain probe above is the only sanctioned reason to skip, so any
/// emit/compile/load failure on a supported netlist is a test failure,
/// not a silent two-way downgrade.
std::unique_ptr<Simulator> makeCodegenStrict(const Netlist& netlist) {
    return std::make_unique<CodegenSim>(netlist);
}

/// Steps every backend in lockstep for `cycles` cycles, asserting after
/// every step that all net values agree pairwise against the
/// event-driven reference, and at the end that every BRAM holds
/// identical contents and all engines counted the same cycles. A
/// SimulationError (e.g. BRAM address overflow from random stimulus)
/// must be raised by every backend on the same cycle, with the same
/// message, to count as agreement.
void expectLockstep(const Netlist& netlist,
                    const std::vector<Stimulus>& stimulus) {
    std::vector<std::unique_ptr<Simulator>> sims;
    sims.push_back(std::make_unique<NetlistSimulator>(netlist));
    sims.push_back(std::make_unique<CompiledSim>(netlist));
    if (codegenUsable()) {
        sims.push_back(makeCodegenStrict(netlist));
    }
    Simulator& reference = *sims.front();

    const auto compareNets = [&](std::size_t cycle, const char* when) {
        for (std::size_t s = 1; s < sims.size(); ++s) {
            for (NetId id = 0; id < netlist.nets().size(); ++id) {
                ASSERT_EQ(reference.netValue(id), sims[s]->netValue(id))
                    << netlist.name() << ": net '" << netlist.net(id).name << "' (id "
                    << id << ") diverged on backend " << sims[s]->backendName() << " "
                    << when << " cycle " << cycle;
            }
        }
    };

    for (std::size_t cycle = 0; cycle < stimulus.size(); ++cycle) {
        std::vector<bool> threw(sims.size(), false);
        std::vector<std::string> message(sims.size());
        for (std::size_t s = 0; s < sims.size(); ++s) {
            for (const auto& [port, value] : stimulus[cycle]) {
                sims[s]->setInput(port, value);
            }
            try {
                sims[s]->step();
            } catch (const SimulationError& e) {
                threw[s] = true;
                message[s] = e.what();
            }
        }
        for (std::size_t s = 1; s < sims.size(); ++s) {
            ASSERT_EQ(threw[0], threw[s])
                << netlist.name() << ": backends " << reference.backendName() << " and "
                << sims[s]->backendName() << " disagreed about throwing on cycle "
                << cycle;
            ASSERT_EQ(message[0], message[s])
                << netlist.name() << ": " << sims[s]->backendName()
                << " threw a different message on cycle " << cycle;
        }
        if (threw[0]) {
            return;  // parity on the error path is all we require
        }
        compareNets(cycle, "after step on");
    }
    for (auto& sim : sims) {
        sim->evaluate();
    }
    compareNets(stimulus.size(), "after final evaluate at");

    for (std::size_t s = 1; s < sims.size(); ++s) {
        EXPECT_EQ(reference.cycleCount(), sims[s]->cycleCount())
            << netlist.name() << ": cycle count diverged on " << sims[s]->backendName();
        for (CellId id = 0; id < netlist.cells().size(); ++id) {
            if (netlist.cell(id).kind == CellKind::Bram) {
                EXPECT_EQ(reference.memoryContents(id), sims[s]->memoryContents(id))
                    << netlist.name() << ": BRAM '" << netlist.cell(id).name
                    << "' final contents diverged on " << sims[s]->backendName();
            }
        }
    }
}

/// Random per-cycle stimulus for every input port; ports change value
/// with probability 1/4 so parts of the design stay quiescent (the
/// compiled backend's dirty skipping must not change observable state).
std::vector<Stimulus> randomStimulus(const Netlist& netlist, std::uint64_t seed,
                                     unsigned cycles) {
    testing::SplitMix64 rng(seed ^ 0xa0761d6478bd642fULL);
    std::vector<Stimulus> out(cycles);
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        for (const auto& port : netlist.ports()) {
            if (port.dir != PortDir::In) {
                continue;
            }
            if (cycle == 0 || rng.below(4) == 0) {
                out[cycle][port.name] = rng.next();
            }
        }
    }
    return out;
}

class RandomNetlistDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetlistDiff, BackendsAgreeCycleForCycle) {
    const std::uint64_t seed = GetParam();
    // sweepOptions varies the shape per seed and folds in the newer
    // constructs (wide >64-bit buses, BRAM collision pairs, deep serial
    // chains) on fixed seed subsets.
    const Netlist netlist = testing::randomNetlist(seed, testing::sweepOptions(seed));
    expectLockstep(netlist, randomStimulus(netlist, seed, 200));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistDiff,
                         ::testing::ValuesIn(testing::diffSimSeeds()));

TEST(RandomNetlistDiff, LargeNetlistAgrees) {
    testing::NetlistGenOptions opt;
    opt.combCells = 600;
    opt.regs = 48;
    opt.brams = 6;
    opt.fsms = 3;
    opt.inputPorts = 8;
    const Netlist netlist = testing::randomNetlist(424242, opt);
    expectLockstep(netlist, randomStimulus(netlist, 424242, 120));
}

// ---------------------------------------------------------------------------
// Reference primitives (hand-built circuits from rtl/primitives.hpp).

TEST(PrimitiveDiff, CounterAdderMacAgree) {
    for (const Netlist& netlist :
         {makeCounter("ctr", 16), makeAdder("add", 32), makeMac("mac", 24)}) {
        expectLockstep(netlist, randomStimulus(netlist, 99, 64));
    }
}

TEST(PrimitiveDiff, BramOutOfRangeThrowsOnBothBackends) {
    NetlistBuilder b("mem");
    const NetId addr = b.inputPort("addr", 8);
    const NetId wdata = b.inputPort("wdata", 16);
    const NetId we = b.inputPort("we", 1);
    b.outputPort("rdata", b.bram(addr, wdata, we, 16, 4));
    expectLockstep(b.netlist(), {{{"addr", 9}, {"we", 1}, {"wdata", 1}}});
}

TEST(PrimitiveDiff, ResetAfterBramFaultResumesIdentically) {
    // A faulted simulator is not poisoned: reset() clears the sequential
    // state and the next in-range write lands identically everywhere.
    NetlistBuilder b("mem");
    const NetId addr = b.inputPort("addr", 8);
    const NetId wdata = b.inputPort("wdata", 16);
    const NetId we = b.inputPort("we", 1);
    b.outputPort("rdata", b.bram(addr, wdata, we, 16, 4));
    const Netlist& netlist = b.netlist();
    CellId bram = kInvalid;
    for (CellId id = 0; id < netlist.cells().size(); ++id) {
        if (netlist.cell(id).kind == CellKind::Bram) {
            bram = id;
        }
    }
    ASSERT_NE(bram, kInvalid);
    std::vector<std::unique_ptr<Simulator>> sims;
    sims.push_back(std::make_unique<NetlistSimulator>(netlist));
    sims.push_back(std::make_unique<CompiledSim>(netlist));
    if (codegenUsable()) {
        sims.push_back(makeCodegenStrict(netlist));
    }
    for (auto& sim : sims) {
        SCOPED_TRACE(std::string(sim->backendName()));
        sim->setInput("addr", 200);
        sim->setInput("we", 1);
        sim->setInput("wdata", 7);
        EXPECT_THROW(sim->step(), SimulationError);
        sim->reset();
        sim->setInput("addr", 2);
        sim->step();
        sim->evaluate();
        EXPECT_EQ(sim->cycleCount(), 1u);
        EXPECT_EQ(sim->memoryContents(bram), (std::vector<std::uint64_t>{0, 0, 7, 0}));
        EXPECT_EQ(sim->output("rdata"), 7u);
    }
}

// ---------------------------------------------------------------------------
// Otsu case study: every HLS netlist of Arch1..Arch4 (Table I).

std::vector<Stimulus> hlsCoreStimulus(const Netlist& netlist, std::uint64_t seed,
                                      unsigned cycles) {
    testing::SplitMix64 rng(seed);
    std::vector<Stimulus> out(cycles);
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        for (const auto& port : netlist.ports()) {
            if (port.dir != PortDir::In) {
                continue;
            }
            const std::string& name = port.name;
            if (name == "ap_start") {
                out[cycle][name] = 1;
            } else if (name.ends_with("_tdata")) {
                out[cycle][name] = rng.below(256);  // pixel-sized payloads
            } else if (name.ends_with("_tvalid") || name.ends_with("_tready")) {
                out[cycle][name] = rng.below(4) != 0 ? 1 : 0;
            } else if (cycle == 0) {
                out[cycle][name] = rng.below(256);  // scalar argument
            }
        }
    }
    return out;
}

TEST(OtsuArchDiff, AllArchitecturesAgreeOnBothBackends) {
    const core::Htg htg = apps::makeOtsuHtg();
    const hls::KernelLibrary kernels = apps::makeOtsuKernelLibrary(4096);
    core::FlowOptions options = apps::otsuFlowOptions();
    options.runSynthesis = false;
    options.generateSoftware = false;
    const auto cache = std::make_shared<core::HlsCache>();
    for (int arch = 1; arch <= 4; ++arch) {
        core::Flow flow(options, kernels, cache);
        const core::FlowResult result = flow.run(
            "diffsim_arch" + std::to_string(arch),
            core::lowerToTaskGraph(htg, apps::otsuArchPartition(arch)));
        ASSERT_FALSE(result.hlsResults.empty()) << "arch " << arch;
        for (const auto& [node, hlsResult] : result.hlsResults) {
            SCOPED_TRACE("arch " + std::to_string(arch) + " core " + node);
            expectLockstep(hlsResult.netlist,
                           hlsCoreStimulus(hlsResult.netlist,
                                           0x07500000u + static_cast<unsigned>(arch),
                                           300));
        }
    }
}

// ---------------------------------------------------------------------------
// VCD traces: byte-identical between backends (and committable as a
// bench artifact via SOCGEN_DUMP_TRACE_DIR).

TEST(TraceDiff, CounterVcdIsByteIdenticalAcrossBackends) {
    const Netlist netlist = makeCounter("ctr", 8);
    std::vector<SimBackend> backends = {SimBackend::EventDriven, SimBackend::Compiled};
    if (codegenUsable()) {
        backends.push_back(SimBackend::Codegen);
    }
    std::vector<std::string> rendered;
    for (const SimBackend backend : backends) {
        const auto sim = backend == SimBackend::Codegen ? makeCodegenStrict(netlist)
                                                        : makeSimulator(netlist, backend);
        VcdTrace trace(netlist, *sim);
        sim->setInput("en", 1);
        for (int cycle = 0; cycle < 24; ++cycle) {
            if (cycle == 10) {
                sim->setInput("en", 0);
            }
            if (cycle == 14) {
                sim->setInput("en", 1);
            }
            sim->step();
            sim->evaluate();
            trace.sample();
        }
        rendered.push_back(trace.render());
    }
    for (std::size_t i = 1; i < rendered.size(); ++i) {
        EXPECT_EQ(rendered[0], rendered[i])
            << "VCD bytes diverged on " << simBackendName(backends[i]);
    }
    if (const char* dir = std::getenv("SOCGEN_DUMP_TRACE_DIR")) {
        writeTextFile(std::string(dir) + "/diff_sim_counter.vcd", rendered[1]);
    }
}

// ---------------------------------------------------------------------------
// Backend selection: Auto is the SOCGEN_SIM_BACKEND override or Compiled.

/// Saves an environment variable and restores it on scope exit, so the
/// selection tests behave the same under the CI diff-sim job (which runs
/// the whole label with SOCGEN_SIM_BACKEND exported).
class EnvGuard {
public:
    explicit EnvGuard(const char* name) : name_(name) {
        if (const char* value = std::getenv(name)) {
            saved_ = value;
        }
        ::unsetenv(name);
    }
    ~EnvGuard() {
        if (saved_.has_value()) {
            ::setenv(name_, saved_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    const char* name_;
    std::optional<std::string> saved_;
};

TEST(BackendSelect, NamesAndParsing) {
    EXPECT_EQ(simBackendName(SimBackend::EventDriven), "event");
    EXPECT_EQ(simBackendName(SimBackend::Compiled), "compiled");
    EXPECT_EQ(simBackendName(SimBackend::Codegen), "codegen");
    EXPECT_EQ(simBackendFromString("event-driven"), SimBackend::EventDriven);
    EXPECT_EQ(simBackendFromString("compiled"), SimBackend::Compiled);
    EXPECT_EQ(simBackendFromString("codegen"), SimBackend::Codegen);
    EXPECT_EQ(simBackendFromString("auto"), SimBackend::Auto);
    EXPECT_THROW((void)simBackendFromString("verilator"), Error);
}

TEST(BackendSelect, ExplicitBackendsReportThemselves) {
    const Netlist netlist = makeCounter("ctr", 8);
    EXPECT_EQ(makeSimulator(netlist, SimBackend::EventDriven)->backendName(), "event");
    EXPECT_EQ(makeSimulator(netlist, SimBackend::Compiled)->backendName(), "compiled");
    if (codegenUsable()) {
        EXPECT_EQ(makeSimulator(netlist, SimBackend::Codegen)->backendName(), "codegen");
    }
}

TEST(BackendSelect, CodegenResolvesThroughEnv) {
    // SOCGEN_SIM_BACKEND=codegen is honoured as a request whether or not
    // a host compiler exists; only construction degrades, never the
    // request. An explicit backend beats the override.
    const EnvGuard guard("SOCGEN_SIM_BACKEND");
    ::setenv("SOCGEN_SIM_BACKEND", "codegen", 1);
    EXPECT_EQ(simBackendFromEnv(), SimBackend::Codegen);
    EXPECT_EQ(simBackendFromEnv(SimBackend::Compiled), SimBackend::Codegen);
    const Netlist netlist = makeCounter("ctr", 8);
    EXPECT_EQ(makeSimulator(netlist, SimBackend::Compiled)->backendName(), "compiled");
}

TEST(BackendSelect, EnvOverridesAuto) {
    const EnvGuard guard("SOCGEN_SIM_BACKEND");
    const Netlist netlist = makeCounter("ctr", 8);
    EXPECT_EQ(makeSimulator(netlist)->backendName(), "compiled");  // Auto = Compiled
    EXPECT_EQ(simBackendFromEnv(), SimBackend::Auto);
    ::setenv("SOCGEN_SIM_BACKEND", "event", 1);
    EXPECT_EQ(makeSimulator(netlist)->backendName(), "event");
    EXPECT_EQ(simBackendFromEnv(), SimBackend::EventDriven);
    ::setenv("SOCGEN_SIM_BACKEND", "compiled", 1);
    EXPECT_EQ(makeSimulator(netlist)->backendName(), "compiled");
    // An explicit backend beats the env override.
    EXPECT_EQ(makeSimulator(netlist, SimBackend::EventDriven)->backendName(), "event");
    // A malformed override fails loudly, naming the variable.
    ::setenv("SOCGEN_SIM_BACKEND", "verilator", 1);
    try {
        (void)makeSimulator(netlist);
        FAIL() << "accepted SOCGEN_SIM_BACKEND=verilator";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("SOCGEN_SIM_BACKEND"), std::string::npos)
            << e.what();
    }
}

TEST(EngineHosting, RtlCoreRunsIdenticallyUnderBothBackends) {
    // A generated accelerator hosted in the SoC cycle engine via
    // RtlCoreComponent must reach ap_done on the same engine cycle with
    // the same result whichever RTL backend clocks the netlist.
    const hls::HlsResult r = hls::HlsEngine{}.synthesize(apps::makeAddKernel(), {});
    std::vector<SimBackend> backends = {SimBackend::EventDriven, SimBackend::Compiled};
    if (codegenUsable()) {
        backends.push_back(SimBackend::Codegen);
    }
    std::vector<std::uint64_t> cycles;
    std::vector<std::uint64_t> sum;
    for (const SimBackend backend : backends) {
        soc::RtlCoreComponent core("add_core", r.netlist, "ap_done", backend);
        EXPECT_EQ(core.sim().backendName(), simBackendName(backend));
        core.sim().setInput("ap_start", 1);
        core.sim().setInput("A", 19);
        core.sim().setInput("B", 23);
        sim::Engine engine;
        engine.add(core);
        cycles.push_back(engine.runUntilIdle(1000));
        sum.push_back(core.sim().output("return"));
        EXPECT_TRUE(core.idle());
        EXPECT_NE(core.debugState().find(simBackendName(backend)), std::string::npos);
    }
    EXPECT_EQ(sum[0], 42u);
    for (std::size_t i = 1; i < backends.size(); ++i) {
        EXPECT_EQ(sum[0], sum[i]) << simBackendName(backends[i]);
        EXPECT_EQ(cycles[0], cycles[i]) << simBackendName(backends[i]);
    }
}

TEST(CompiledIntrospection, DirtySkippingGoesQuiescent) {
    // A disabled counter settles: after the first few cycles the
    // compiled backend should evaluate zero ops per step.
    const Netlist netlist = makeCounter("ctr", 8);
    CompiledSim sim(netlist);
    sim.setInput("en", 0);
    for (int i = 0; i < 4; ++i) {
        sim.step();
    }
    const std::uint64_t settled = sim.opsEvaluated();
    for (int i = 0; i < 100; ++i) {
        sim.step();
    }
    EXPECT_EQ(sim.opsEvaluated(), settled);  // quiescent subgraph skipped
    EXPECT_GT(sim.levelCount(), 1u);
    EXPECT_EQ(sim.opCount(), netlist.topoOrder().size());
}

} // namespace
} // namespace socgen::rtl
