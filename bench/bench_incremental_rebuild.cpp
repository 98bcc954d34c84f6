// Incremental-rebuild benchmark for the journaled flow: builds the Otsu
// Arch4 case study cold (empty artifact store), then rebuilds the same
// project warm (every HLS core served from the store) and after a
// single-kernel directive change (only that core re-synthesized). The
// interesting number is the simulated tool-seconds avoided — with real
// vendor tools each avoided HLS run is minutes, not milliseconds.

#include "otsu_bench_common.hpp"

#include <cstdio>
#include <filesystem>

using namespace socgen;

namespace {

struct RunStats {
    double toolSeconds = 0.0;
    double hostMs = 0.0;
    std::size_t engineRuns = 0;
    std::size_t storeHits = 0;
};

RunStats runOnce(benchsupport::CaseStudy& cs, const std::string& outputDir,
                 int unrollSegment) {
    core::FlowOptions options = apps::otsuFlowOptions();
    options.outputDir = outputDir;
    if (unrollSegment > 1) {
        options.kernelDirectives["segment"].unrollFactors["i"] = unrollSegment;
    }
    // A fresh Flow and no shared in-memory cache: reuse must come from the
    // persistent store, as it would for a new tool process after a crash.
    core::Flow flow(options, cs.kernels);
    const core::FlowResult result = flow.run(
        "Arch4", core::lowerToTaskGraph(cs.htg, apps::otsuArchPartition(4)));
    RunStats stats;
    stats.toolSeconds = result.diagnostics.stageToolSeconds();
    for (const auto& stage : result.diagnostics.stages) {
        stats.hostMs += stage.hostMs;
    }
    stats.engineRuns = result.diagnostics.engineRuns();
    stats.storeHits = result.diagnostics.storeHits();
    return stats;
}

} // namespace

int main() {
    Logger::global().setLevel(LogLevel::Error);
    benchsupport::CaseStudy cs;
    const std::string dir =
        (std::filesystem::temp_directory_path() / "socgen_bench_incremental").string();
    std::filesystem::remove_all(dir);

    const RunStats cold = runOnce(cs, dir, 1);
    const RunStats warm = runOnce(cs, dir, 1);
    const RunStats touched = runOnce(cs, dir, 4);  // one kernel's directives change
    const RunStats touchedWarm = runOnce(cs, dir, 4);
    std::filesystem::remove_all(dir);

    std::printf("Incremental rebuild via the journaled artifact store (Otsu Arch4)\n\n");
    std::printf("%-34s %14s %10s %10s %12s\n", "run", "tool-seconds", "HLS runs",
                "store hits", "host-ms");
    const auto row = [](const char* name, const RunStats& s) {
        std::printf("%-34s %14.1f %10zu %10zu %12.3f\n", name, s.toolSeconds,
                    s.engineRuns, s.storeHits, s.hostMs);
    };
    row("cold (empty store)", cold);
    row("warm (same inputs)", warm);
    row("one kernel's directives changed", touched);
    row("warm again (both variants stored)", touchedWarm);

    std::printf("\nwarm rebuild avoids %.1f simulated tool-seconds (%.1f%% of cold)\n",
                cold.toolSeconds - warm.toolSeconds,
                100.0 * (cold.toolSeconds - warm.toolSeconds) / cold.toolSeconds);
    std::printf("a single-kernel change re-runs %zu of %zu HLS cores\n",
                touched.engineRuns, cold.engineRuns);
    return 0;
}
