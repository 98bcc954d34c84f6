// Figure 9 of the paper: "Time breakdown of the different actions needed
// to generate the four architectures of the case study". The paper
// reports ~42 minutes of vendor-tool time in total, dominated by the
// per-architecture synthesis runs, plus one HLS run per function (cores
// are generated once — Arch4 first) and ~6 s of Scala compilation.
//
// Our substituted tool models charge deterministic simulated tool-seconds
// per flow stage; the real host milliseconds of this reproduction are
// printed alongside. The exit code gates the figure's shape.

#include "otsu_bench_common.hpp"

#include <cstdio>

using namespace socgen;

int main() {
    Logger::global().setLevel(LogLevel::Error);
    benchsupport::CaseStudy cs;

    // Paper order: Arch4 first so HLS happens once per function. The
    // stage rows of all four runs, in build order, make up the figure.
    const std::array<int, 4> order{4, 1, 2, 3};
    core::FlowDiagnostics combined;
    double totalHostMs = 0.0;
    std::printf("Figure 9 — generation-time breakdown (simulated tool-seconds)\n\n");
    std::printf("%-28s %14s %12s\n", "stage", "tool-seconds", "host-ms");
    for (int arch : order) {
        const core::FlowResult result = cs.buildArch(arch);
        for (const auto& stage : result.diagnostics.stages) {
            std::printf("Arch%d %-22s %14.1f %12.3f\n", arch, stage.stage.c_str(),
                        stage.toolSeconds, stage.hostMs);
            totalHostMs += stage.hostMs;
            combined.stages.push_back(stage);
        }
    }

    std::printf("\naggregate series (the Figure 9 bars):\n");
    const double scala = combined.stageToolSeconds("scala");
    const double hls = combined.stageToolSeconds("hls:");
    const double project = combined.stageToolSeconds("integrate");
    const double synth = combined.stageToolSeconds("synth");
    const double sw = combined.stageToolSeconds("devicetree") +
                      combined.stageToolSeconds("drivers") + combined.stageToolSeconds("boot");
    const double total = combined.stageToolSeconds();
    std::printf("  %-22s %10.1f s  (paper: ~6 s per description)\n", "SCALA compile",
                scala);
    std::printf("  %-22s %10.1f s  (once per function)\n", "HLS core generation", hls);
    std::printf("  %-22s %10.1f s  (paper: ~50 s per architecture)\n",
                "Vivado project gen", project);
    std::printf("  %-22s %10.1f s  (synth+impl+bitstream per arch)\n",
                "synthesis to bitstream", synth);
    std::printf("  %-22s %10.1f s\n", "software generation", sw);
    std::printf("  %-22s %10.1f s = %.1f minutes  (paper: 42 minutes total)\n", "TOTAL",
                total, total / 60.0);
    std::printf("\nreal host time for the whole reproduction: %.1f ms\n", totalHostMs);

    const bool shapeOk = synth > project && synth > hls && total > 30 * 60 &&
                         total < 55 * 60;
    std::printf("shape: synthesis dominates every other phase, total within "
                "[30, 55] min (paper: 42): %s\n",
                shapeOk ? "HOLDS" : "VIOLATED");
    return shapeOk ? 0 : 1;
}
