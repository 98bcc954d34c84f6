#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/flow.hpp"
#include "socgen/core/report.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/core/project.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

namespace socgen::core {
namespace {

hls::KernelLibrary exampleKernels() {
    hls::KernelLibrary lib;
    lib.add(apps::makeAddKernel());
    lib.add(apps::makeMulKernel());
    lib.add(apps::makeGaussKernel(64));
    lib.add(apps::makeEdgeKernel(64));
    return lib;
}

TaskGraph quickstartGraph() {
    constexpr const char* dsl = R"(
object q extends App {
  tg nodes;
    tg node "MUL" i "A" i "B" i "return" end;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
    tg connect "MUL";
  tg end_edges;
}
)";
    return parseDsl(dsl).graph;
}

TEST(Flow, ProducesAllArtifacts) {
    const hls::KernelLibrary kernels = exampleKernels();
    Flow flow(FlowOptions{}, kernels);
    const FlowResult result = flow.run("proj", quickstartGraph());
    EXPECT_EQ(result.projectName, "proj");
    EXPECT_EQ(result.hlsResults.size(), 3u);
    EXPECT_EQ(result.programs.size(), 3u);
    EXPECT_FALSE(result.dslText.empty());
    EXPECT_FALSE(result.tclText.empty());
    EXPECT_FALSE(result.deviceTree.empty());
    EXPECT_EQ(result.driverFiles.size(), 2u);
    EXPECT_FALSE(result.bootImage.partitions.empty());
    EXPECT_TRUE(result.design.finalised());
    EXPECT_GT(result.synthesis.total.lut, 0);
}

TEST(Flow, TimelineHasAllPhases) {
    const hls::KernelLibrary kernels = exampleKernels();
    Flow flow(FlowOptions{}, kernels);
    const FlowResult result = flow.run("proj", quickstartGraph());
    const FlowDiagnostics& d = result.diagnostics;
    EXPECT_GT(d.stageToolSeconds("scala"), 0.0);
    EXPECT_GT(d.stageToolSeconds("hls:"), 0.0);
    EXPECT_GT(d.stageToolSeconds("integrate"), 0.0);
    EXPECT_GT(d.stageToolSeconds("synth"), 0.0);
    EXPECT_GT(d.stageToolSeconds("devicetree"), 0.0);
    EXPECT_GT(d.stageToolSeconds("drivers"), 0.0);
    EXPECT_GT(d.stageToolSeconds("boot"), 0.0);
    // The paper reports ~6 s to compile the Scala task graph and ~50 s to
    // generate the Vivado project; our deterministic model stays in that
    // neighbourhood.
    EXPECT_NEAR(d.stageToolSeconds("scala"), 6.0, 2.0);
    EXPECT_NEAR(d.stageToolSeconds("integrate"), 50.0, 20.0);
}

TEST(Flow, CacheSkipsRepeatedHls) {
    const hls::KernelLibrary kernels = exampleKernels();
    auto cache = std::make_shared<HlsCache>();
    Flow flowA(FlowOptions{}, kernels, cache);
    const FlowResult first = flowA.run("a", quickstartGraph());
    EXPECT_GT(first.diagnostics.stageToolSeconds("hls:"), 0.0);
    EXPECT_EQ(cache->size(), 3u);

    Flow flowB(FlowOptions{}, kernels, cache);
    const FlowResult second = flowB.run("b", quickstartGraph());
    // All three nodes hit the cache: no HLS tool time charged (the paper
    // generates each core once across its four architectures).
    EXPECT_DOUBLE_EQ(second.diagnostics.stageToolSeconds("hls:"), 0.0);
    EXPECT_EQ(second.hlsResults.at("GAUSS").resources,
              first.hlsResults.at("GAUSS").resources);
}

TEST(Flow, MissingKernelReported) {
    hls::KernelLibrary onlyAdd;
    onlyAdd.add(apps::makeAddKernel());
    Flow flow(FlowOptions{}, onlyAdd);
    try {
        (void)flow.run("p", quickstartGraph());
        FAIL() << "expected missing-kernel error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("no kernel source"), std::string::npos);
    }
}

TEST(Flow, InterfaceMismatchReported) {
    // Graph declares MUL's A as a stream; the kernel exposes a scalar.
    constexpr const char* dsl = R"(
object q extends App {
  tg nodes; tg node "MUL" is "A" end; tg end_nodes;
  tg edges; tg link ("MUL","A") to 'soc end; tg end_edges;
}
)";
    const hls::KernelLibrary kernels = exampleKernels();
    Flow flow(FlowOptions{}, kernels);
    EXPECT_THROW((void)flow.run("p", parseDsl(dsl).graph), DslError);
}

TEST(Flow, LinkDirectionMismatchReported) {
    // GAUSS/in is a stream input but used as a link source.
    constexpr const char* dsl = R"(
object q extends App {
  tg nodes; tg node "GAUSS" is "in" is "out" end; tg end_nodes;
  tg edges;
    tg link ("GAUSS","in") to 'soc end;
    tg link 'soc to ("GAUSS","out") end;
  tg end_edges;
}
)";
    const hls::KernelLibrary kernels = exampleKernels();
    Flow flow(FlowOptions{}, kernels);
    EXPECT_THROW((void)flow.run("p", parseDsl(dsl).graph), Error);
}

TEST(Flow, SynthesisCanBeSkipped) {
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.runSynthesis = false;
    const FlowResult result = Flow(options, kernels).run("p", quickstartGraph());
    EXPECT_EQ(result.synthesis.total, hls::ResourceEstimate{});
    EXPECT_TRUE(result.bitstream.configRecords.empty());
    EXPECT_DOUBLE_EQ(result.diagnostics.stageToolSeconds("synth"), 0.0);
    EXPECT_FALSE(result.tclText.empty());  // integration still ran
}

TEST(Flow, WritesArtifactsToOutputDir) {
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/socgen_flow_out";
    fs::remove_all(dir);
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.outputDir = dir;
    (void)Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_TRUE(fs::exists(dir + "/proj/proj.tg"));
    EXPECT_TRUE(fs::exists(dir + "/proj/proj.tcl"));
    EXPECT_TRUE(fs::exists(dir + "/proj/proj.bit"));
    EXPECT_TRUE(fs::exists(dir + "/proj/hls/GAUSS.vhd"));
    EXPECT_TRUE(fs::exists(dir + "/proj/hls/GAUSS_directives.tcl"));
    EXPECT_TRUE(fs::exists(dir + "/proj/devicetree.dts"));
    EXPECT_TRUE(fs::exists(dir + "/proj/sw/proj_api.h"));
    EXPECT_TRUE(fs::exists(dir + "/proj/boot.bin"));
    EXPECT_TRUE(fs::exists(dir + "/proj/design.dot"));
    EXPECT_TRUE(fs::exists(dir + "/proj/utilisation.txt"));
    fs::remove_all(dir);
}

TEST(Flow, MarkdownReportCoversEverything) {
    const hls::KernelLibrary kernels = exampleKernels();
    const FlowResult result = Flow(FlowOptions{}, kernels).run("rep", quickstartGraph());
    const std::string report = renderFlowReport(result, result.diagnostics.stages);
    EXPECT_NE(report.find("# Flow report — rep"), std::string::npos);
    EXPECT_NE(report.find("## Hardware cores"), std::string::npos);
    EXPECT_NE(report.find("| GAUSS |"), std::string::npos);
    EXPECT_NE(report.find("## Synthesis"), std::string::npos);
    EXPECT_NE(report.find("## Generation timeline"), std::string::npos);
    EXPECT_NE(report.find("| scala | "), std::string::npos);
    EXPECT_NE(report.find(".bit` — bitstream"), std::string::npos);
    EXPECT_NE(report.find("hls/GAUSS.vhd"), std::string::npos);
}

TEST(Flow, ReportWrittenWithArtifacts) {
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/socgen_report_out";
    fs::remove_all(dir);
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.outputDir = dir;
    (void)Flow(options, kernels).run("rep", quickstartGraph());
    EXPECT_TRUE(fs::exists(dir + "/rep/REPORT.md"));
    EXPECT_TRUE(fs::exists(dir + "/rep/hls/GAUSS.v"));  // Verilog alongside VHDL
    fs::remove_all(dir);
}

TEST(Flow, WrittenReportTimelineIsTheStageTable) {
    // The flow writes REPORT.md from inside its last stage, "artifacts":
    // the timeline holds one row per other stage and totals to the tool
    // time the run's diagnostics record.
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/socgen_report_rows";
    fs::remove_all(dir);
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.outputDir = dir;
    const FlowResult result = Flow(options, kernels).run("rep", quickstartGraph());
    const std::string report = readTextFile(dir + "/rep/REPORT.md");
    const std::string timeline =
        report.substr(report.find("## Generation timeline"),
                      report.find("## Artifacts") - report.find("## Generation timeline"));
    std::size_t rows = 0;
    for (const auto& stage : result.diagnostics.stages) {
        if (stage.stage == "artifacts") {
            continue;
        }
        ++rows;
        EXPECT_NE(timeline.find(format("| %s | %.1f | %s |\n", stage.stage.c_str(),
                                       stage.toolSeconds, stage.source.c_str())),
                  std::string::npos)
            << stage.stage;
    }
    EXPECT_EQ(rows, result.diagnostics.stages.size() - 1);
    // Header, alignment row, one row per stage, total.
    EXPECT_EQ(static_cast<std::size_t>(std::count(timeline.begin(), timeline.end(), '|')),
              4 * (rows + 3));
    EXPECT_NE(timeline.find(format("| **total** | **%.1f** | |",
                                   result.diagnostics.stageToolSeconds())),
              std::string::npos);
    EXPECT_EQ(timeline.find("artifacts"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Flow, DslFileRoundTrip) {
    const std::string path = testing::TempDir() + "/roundtrip.tg";
    const hls::KernelLibrary kernels = exampleKernels();
    const FlowResult first = Flow(FlowOptions{}, kernels).run("q", quickstartGraph());
    writeTextFile(path, first.dslText);
    const FlowResult second = runDslFile(path, kernels);
    EXPECT_TRUE(first.graph == second.graph);
    std::filesystem::remove(path);
}

} // namespace
} // namespace socgen::core
