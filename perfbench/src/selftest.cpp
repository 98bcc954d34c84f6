// Determinism self-tests of the benchmark's own code, and the Otsu Arch4
// host-time baselines.

#include "bench.hpp"

#include "socgen/apps/otsu.hpp"
#include "socgen/apps/otsu_project.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

using namespace socgen;

namespace {

/// Simulated counters of the traced otsu-board run: exact, so two runs
/// of one seed must agree on every one.
const std::vector<std::string> kBoardCounters = {
    "ps.busy_cycles", "ps.task_cycles", "ps.driver_cycles", "axi.beats",
    "axi.push_stalls", "axi.pop_stalls", "axi.high_water_max", "vm.cycles",
    "vm.stall_cycles", "vm.instrs", "dma.words"};

class Checker {
public:
    void check(bool ok, const std::string& what) {
        std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
        failures_ += ok ? 0 : 1;
    }
    [[nodiscard]] int failures() const { return failures_; }

private:
    int failures_ = 0;
};

void checkRun(Checker& c, const std::string& what, const RunResult& r) {
    c.check(r.tally.attempted > 0 && r.tally.failed == 0,
            what + ": " + std::to_string(r.tally.attempted) + " ops, " +
                std::to_string(r.tally.failed) + " failed" +
                (r.tally.failed > 0 ? " (" + r.tally.firstFailure + ")" : ""));
}

/// Runs `run` untraced twice and traced twice on `config` (bounded by
/// maxOps) and checks every simulated cycle count agrees.
template <typename Run>
void checkCycles(Checker& c, const std::string& name, Config config, Run run,
                 RunResult* tracedOut = nullptr, RunResult* tracedAgain = nullptr) {
    config.workload = name;
    config.tracePath = config.workDir + "/selftest-" + name + ".json";
    config.trace = false;
    const RunResult u1 = run(config);
    const RunResult u2 = run(config);
    config.trace = true;
    RunResult t1 = run(config);
    RunResult t2 = run(config);
    checkRun(c, name + " untraced", u1);
    checkRun(c, name + " traced", t1);
    c.check(u1.simCycles > 0 && u1.simCycles == u2.simCycles,
            name + ": sim cycles repeat between two untraced runs (" +
                std::to_string(u1.simCycles) + ")");
    c.check(t1.simCycles == u1.simCycles && t1.simCyclesTraced == u1.simCycles &&
                t2.simCycles == u1.simCycles && t2.simCyclesTraced == u1.simCycles,
            name + ": sim cycles equal between untraced and traced runs");
    if (tracedOut != nullptr) {
        *tracedOut = std::move(t1);
        *tracedAgain = std::move(t2);
    }
}

} // namespace

int runSelfTest(const Config& base) {
    Checker c;
    const std::uint64_t seed = base.seed;
    const std::uint64_t other = seed + 1;
    c.check(boardOpSequence(seed, 24) == boardOpSequence(seed, 24),
            "otsu-board: one seed gives byte-identical ops and inputs");
    c.check(boardOpSequence(seed, 24) != boardOpSequence(other, 24),
            "otsu-board: another seed gives other ops");
    c.check(flowColdOpSequence(seed, 64) == flowColdOpSequence(seed, 64),
            "flow-cold: one seed gives byte-identical ops and inputs");
    c.check(flowColdOpSequence(seed, 64) != flowColdOpSequence(other, 64),
            "flow-cold: another seed gives other ops");
    Config svcConfig = base;
    svcConfig.seconds = 10.0;
    Config svcOther = svcConfig;
    svcOther.seed = other;
    c.check(serviceOpSequence(svcConfig, 200) == serviceOpSequence(svcConfig, 200),
            "service-mix: one seed gives a byte-identical schedule");
    c.check(serviceOpSequence(svcConfig, 200) != serviceOpSequence(svcOther, 200),
            "service-mix: another seed gives another schedule");

    Config small = base;
    small.seconds = 120.0;
    small.maxOps = 8;
    RunResult t1;
    RunResult t2;
    checkCycles(c, "otsu-board", small, runOtsuBoard, &t1, &t2);
    bool countersEqual = true;
    for (const std::string& name : kBoardCounters) {
        countersEqual = countersEqual && t1.layers.count(name) > 0 &&
                        t1.layers.at(name) == t2.layers.at(name);
    }
    c.check(countersEqual && t1.layers.at("vm.cycles") > 0,
            "otsu-board: every simulated counter repeats between two traced runs");
    checkCycles(c, "flow-cold", small, runFlowCold);

    // maxOps caps the schedule, so the untraced run and each half of the
    // traced run offer the same requests.
    Config service = base;
    service.seconds = 4.0;
    service.maxOps = 40;
    checkCycles(c, "service-mix", service, runServiceMix);

    std::printf("selftest: %d failed check(s); default seed %llu\n", c.failures(),
                static_cast<unsigned long long>(seed));
    return c.failures();
}

int runBaseline(const Config& config) {
    constexpr unsigned kSide = 128;
    constexpr int kReps = 30;
    const hls::KernelLibrary kernels =
        apps::makeOtsuKernelLibrary(static_cast<std::int64_t>(kSide) * kSide);
    const core::FlowOptions options = apps::otsuFlowOptions();
    const core::HtgPartition partition = apps::otsuArchPartition(4);
    const core::TaskGraph graph = core::lowerToTaskGraph(apps::makeOtsuHtg(), partition);
    const apps::RgbImage scene = apps::makeSyntheticScene(kSide, kSide);

    std::vector<double> cold;
    for (int r = 0; r < kReps; ++r) {
        const TimePoint t0 = Clock::now();
        core::Flow flow(options, kernels, std::make_shared<core::HlsCache>());
        (void)flow.run("Arch4", graph);
        cold.push_back(msBetween(t0, Clock::now()));
    }
    auto cache = std::make_shared<core::HlsCache>();
    core::FlowResult result = core::Flow(options, kernels, cache).run("Arch4", graph);
    std::vector<double> warm;
    for (int r = 0; r < kReps; ++r) {
        const TimePoint t0 = Clock::now();
        core::Flow flow(options, kernels, cache);
        result = flow.run("Arch4", graph);
        warm.push_back(msBetween(t0, Clock::now()));
    }
    std::vector<double> board;
    std::uint64_t cycles = 0;
    bool exact = true;
    const apps::GrayImage reference = apps::otsuFilterRef(scene);
    for (int r = 0; r < kReps; ++r) {
        apps::OtsuSystemRunner runner(result, partition);
        const TimePoint t0 = Clock::now();
        const apps::OtsuSystemRunner::Result out = runner.run(scene);
        board.push_back(msBetween(t0, Clock::now()));
        cycles = out.cycles;
        exact = exact && out.output == reference;
    }
    const double boardMs = median(board);
    std::printf("baseline (Otsu Arch4, %ux%u, median of %d, seed-independent scene)\n", kSide,
                kSide, kReps);
    std::printf("  flow, fresh HLS cache   %10.3f ms\n", median(cold));
    std::printf("  flow, warm HLS cache    %10.3f ms\n", median(warm));
    std::printf("  board run               %10.3f ms  %llu cycles  %.2f Mcycles/s  %s\n",
                boardMs, static_cast<unsigned long long>(cycles),
                static_cast<double>(cycles) / boardMs / 1e3,
                exact ? "bit-exact" : "WRONG OUTPUT");
    (void)config;
    return exact ? 0 : 1;
}

} // namespace perfbench
