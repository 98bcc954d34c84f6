// Infrastructure performance (google-benchmark): how fast the substrates
// themselves run on the host — stream channels, the netlist simulator,
// the kernel VM, the DSL parser, the HLS engine, and a full flow +
// system simulation. These numbers bound how large an experiment the
// reproduction can sweep.

#include "netlist_gen.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu_project.hpp"
#include "socgen/rtl/netlist_sim.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/sim_backend.hpp"
#include "socgen/socgen.hpp"

#include <benchmark/benchmark.h>

using namespace socgen;

namespace {

/// Benchmarks taking a backend argument register with ->Arg(0) (event)
/// and ->Arg(1) (compiled) so one binary reports both side by side.
rtl::SimBackend benchBackend(std::int64_t arg) {
    return arg == 0 ? rtl::SimBackend::EventDriven : rtl::SimBackend::Compiled;
}

/// The shared random design for the backend comparison: the same seed
/// and shape the differential suite's LargeNetlistAgrees case locks to
/// cycle-identical behaviour across backends.
rtl::Netlist benchRandomNetlist() {
    socgen::testing::NetlistGenOptions opt;
    opt.combCells = 600;
    opt.regs = 48;
    opt.brams = 6;
    opt.fsms = 3;
    opt.inputPorts = 8;
    return socgen::testing::randomNetlist(424242, opt);
}

void BM_StreamChannelPushPop(benchmark::State& state) {
    axi::StreamChannel chan("bench", 1024, 32);
    axi::StreamBeat beat;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chan.tryPush(42));
        benchmark::DoNotOptimize(chan.tryPop(beat));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamChannelPushPop);

void BM_NetlistSimCounterStep(benchmark::State& state) {
    const rtl::Netlist netlist = rtl::makeCounter("ctr", 32);
    rtl::NetlistSimulator sim(netlist);
    sim.setInput("en", 1);
    for (auto _ : state) {
        sim.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetlistSimCounterStep);

void BM_SimBackendCounterStep(benchmark::State& state) {
    const rtl::Netlist netlist = rtl::makeCounter("ctr", 32);
    const auto sim = rtl::makeSimulator(netlist, benchBackend(state.range(0)));
    sim->setInput("en", 1);
    for (auto _ : state) {
        sim->step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(std::string(sim->backendName()));
}
BENCHMARK(BM_SimBackendCounterStep)->Arg(0)->Arg(1);

void BM_SimBackendRandomActive(benchmark::State& state) {
    // Every input port changes every cycle: the worst case for dirty
    // tracking, so the gap here is the levelized program versus the
    // per-cell interpreter alone.
    const rtl::Netlist netlist = benchRandomNetlist();
    const auto sim = rtl::makeSimulator(netlist, benchBackend(state.range(0)));
    socgen::testing::SplitMix64 rng(7);
    for (auto _ : state) {
        for (unsigned i = 0; i < 8; ++i) {
            sim->setInput("in" + std::to_string(i), rng.next());
        }
        sim->step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(std::string(sim->backendName()));
}
BENCHMARK(BM_SimBackendRandomActive)->Arg(0)->Arg(1);

void BM_SimBackendRandomQuiescent(benchmark::State& state) {
    // Inputs held constant: only the sequential feedback region stays
    // active, so the compiled backend's dirty-region skipping shows its
    // full win over the re-evaluate-everything interpreter.
    const rtl::Netlist netlist = benchRandomNetlist();
    const auto sim = rtl::makeSimulator(netlist, benchBackend(state.range(0)));
    socgen::testing::SplitMix64 rng(7);
    for (unsigned i = 0; i < 8; ++i) {
        sim->setInput("in" + std::to_string(i), rng.next());
    }
    for (auto _ : state) {
        sim->step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(std::string(sim->backendName()));
}
BENCHMARK(BM_SimBackendRandomQuiescent)->Arg(0)->Arg(1);

void BM_SimBackendHlsHistogramCore(benchmark::State& state) {
    // A generated accelerator under steady streaming stimulus — the
    // cosim shape the HLS VM equivalence tests and RtlCoreComponent run.
    const hls::HlsResult r =
        hls::HlsEngine{}.synthesize(apps::makeHistogramKernel(16384), {});
    const auto sim = rtl::makeSimulator(r.netlist, benchBackend(state.range(0)));
    sim->setInput("ap_start", 1);
    for (const auto& port : r.netlist.ports()) {
        if (port.dir != rtl::PortDir::In) {
            continue;
        }
        if (port.name.ends_with("_tvalid") || port.name.ends_with("_tready")) {
            sim->setInput(port.name, 1);
        } else if (port.name.ends_with("_tdata")) {
            sim->setInput(port.name, 0x5a);
        }
    }
    for (auto _ : state) {
        sim->step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel(std::string(sim->backendName()));
}
BENCHMARK(BM_SimBackendHlsHistogramCore)->Arg(0)->Arg(1);

void BM_KernelVmGaussCycle(benchmark::State& state) {
    const hls::Kernel kernel = apps::makeGaussKernel(1 << 20);
    const hls::KernelSchedule schedule = hls::scheduleKernel(kernel, {});
    const hls::Program program = hls::compileKernel(kernel, schedule);

    class NullIo : public hls::KernelIo {
    public:
        std::uint64_t argValue(hls::PortId) override { return 0; }
        void setResult(hls::PortId, std::uint64_t) override {}
        bool streamRead(hls::PortId, std::uint64_t& v) override {
            v = 7;
            return true;
        }
        bool streamWrite(hls::PortId, std::uint64_t) override { return true; }
    } io;
    hls::KernelVm vm(program, io);
    vm.start();
    for (auto _ : state) {
        if (!vm.running()) {
            vm.start();
        }
        vm.tick();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel("simulated accelerator cycles/s");
}
BENCHMARK(BM_KernelVmGaussCycle);

void BM_DslParse(benchmark::State& state) {
    core::TaskGraph graph;
    for (int i = 0; i < 16; ++i) {
        core::TgNode node;
        node.name = format("core%d", i);
        node.ports.push_back(core::TgPort{"in", hls::InterfaceProtocol::AxiStream});
        node.ports.push_back(core::TgPort{"out", hls::InterfaceProtocol::AxiStream});
        graph.addNode(std::move(node));
        graph.addLink(core::TgLink{core::TgEndpoint::socEnd(),
                                   core::TgEndpoint::of(format("core%d", i), "in")});
        graph.addLink(core::TgLink{core::TgEndpoint::of(format("core%d", i), "out"),
                                   core::TgEndpoint::socEnd()});
    }
    const std::string source = graph.renderDsl("wide");
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::parseDsl(source));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * source.size()));
}
BENCHMARK(BM_DslParse);

void BM_HlsSynthesizeHistogram(benchmark::State& state) {
    const hls::Kernel kernel = apps::makeHistogramKernel(16384);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hls::HlsEngine{}.synthesize(kernel, {}));
    }
}
BENCHMARK(BM_HlsSynthesizeHistogram);

void BM_FullFlowQuickstart(benchmark::State& state) {
    hls::KernelLibrary kernels;
    kernels.add(apps::makeGaussKernel(1024));
    kernels.add(apps::makeEdgeKernel(1024));
    const char* dsl = R"(
object q extends App {
  tg nodes;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
  tg end_edges;
}
)";
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::runDslText(dsl, kernels));
    }
    state.SetLabel("DSL -> bitstream+drivers, no cache");
}
BENCHMARK(BM_FullFlowQuickstart);

void BM_SystemSimOtsuArch4(benchmark::State& state) {
    const std::int64_t side = state.range(0);
    const std::int64_t pixels = side * side;
    const core::Htg htg = apps::makeOtsuHtg();
    const hls::KernelLibrary kernels = apps::makeOtsuKernelLibrary(pixels);
    core::Flow flow(apps::otsuFlowOptions(), kernels, std::make_shared<core::HlsCache>());
    const core::FlowResult result =
        flow.run("bench", core::lowerToTaskGraph(htg, apps::otsuArchPartition(4)));
    const apps::RgbImage scene =
        apps::makeSyntheticScene(static_cast<unsigned>(side), static_cast<unsigned>(side));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        apps::OtsuSystemRunner runner(result, apps::otsuArchPartition(4));
        cycles = runner.run(scene).cycles;
        benchmark::DoNotOptimize(cycles);
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemSimOtsuArch4)->Arg(32)->Arg(64)->Arg(128);

} // namespace

int main(int argc, char** argv) {
    Logger::global().setLevel(LogLevel::Error);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
