// Golden-file snapshot tests for the Verilog and VHDL emitters and for
// the record a flow run leaves: the exact text for a set of reference
// designs and one reference flow is committed under tests/golden/ and
// any drift fails the suite. Regenerate on purpose
// with `test_rtl_golden --update-golden` (or SOCGEN_UPDATE_GOLDEN=1) and
// review the diff like any other code change.

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/flow.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/hls/serialize.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"

#include "netlist_gen.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

namespace socgen::rtl {
namespace {

bool g_update = false;

std::string goldenPath(const std::string& stem, const char* ext) {
    return std::string(SOCGEN_GOLDEN_DIR) + "/" + stem + ext;
}

/// Compares `text` against the committed snapshot (or rewrites it in
/// update mode). Kept as one helper so every design exercises the same
/// path for both HDL flavours.
void expectMatchesGolden(const std::string& stem, const char* ext,
                         const std::string& text) {
    const std::string path = goldenPath(stem, ext);
    if (g_update) {
        writeTextFile(path, text);
        SUCCEED() << "updated " << path;
        return;
    }
    ASSERT_TRUE(fileExists(path))
        << path << " missing - run test_rtl_golden --update-golden to create it";
    EXPECT_EQ(readTextFile(path), text)
        << stem << ext << " drifted from the committed golden file; if the "
        << "change is intentional, run test_rtl_golden --update-golden and "
        << "commit the new snapshot";
}

void expectGolden(const std::string& stem, const Netlist& netlist) {
    expectMatchesGolden(stem, ".v", VerilogEmitter{}.emit(netlist));
    expectMatchesGolden(stem, ".vhd", VhdlEmitter{}.emit(netlist));
}

TEST(Golden, Counter8) { expectGolden("ctr8", makeCounter("ctr", 8)); }

TEST(Golden, Adder16) { expectGolden("add16", makeAdder("add", 16)); }

TEST(Golden, Mac32) { expectGolden("mac32", makeMac("mac", 32)); }

TEST(Golden, HlsAddKernel) {
    const hls::HlsResult r = hls::HlsEngine{}.synthesize(apps::makeAddKernel(), {});
    expectGolden("hls_add", r.netlist);
}

// The dataflow-channel FIFO primitive, with initial tokens so the
// primed-register path is part of the snapshot.
TEST(Golden, DataflowFifo) { expectGolden("fifo8x4", makeFifo("fifo", 8, 4, 1)); }

// The assembled process-wrapper glue: three flattened stage cores, two
// channel FIFOs, the ap_start broadcast and the ap_done AND-tree. Any
// change to the wrapper assembly or FIFO port naming shows up here.
TEST(Golden, DataflowWrapper) {
    const hls::HlsResult r =
        hls::HlsEngine{}.synthesize(apps::makeStreamPipelineNetwork(8));
    expectGolden("dataflow_tri", r.netlist);
}

/// Every full-size HLS result the digest snapshots cover: each core of
/// the app library (default directives and an unroll=4, optimizer-off
/// variant), and the processes and wrappers of both dataflow networks,
/// each with a stable label.
template <typename Visit>
void forEachGoldenResult(Visit&& visit) {
    hls::Directives unrolled;
    unrolled.enableOptimizer = false;
    unrolled.unrollFactors = {{"i", 4}, {"idx", 4}};
    const std::pair<const char*, hls::Directives> variants[] = {{"default", {}},
                                                                {"unroll4", unrolled}};
    constexpr std::int64_t pixels = 64 * 64;
    const hls::Kernel kernels[] = {
        apps::makeGrayScaleKernel(pixels), apps::makeHistogramKernel(pixels),
        apps::makeOtsuKernel(pixels),      apps::makeBinarizationKernel(pixels),
        apps::makeAddKernel(),             apps::makeMulKernel(),
        apps::makeGaussKernel(256),        apps::makeEdgeKernel(256),
        apps::makeSobelKernel(32, 32)};
    const hls::ProcessNetwork networks[] = {apps::makeStreamPipelineNetwork(256),
                                            apps::makeOtsuDataflowNetwork(256, 256)};
    const hls::HlsEngine engine;
    for (const auto& [variant, directives] : variants) {
        for (const hls::Kernel& kernel : kernels) {
            visit(format("%s/%s", variant, kernel.name().c_str()),
                  engine.synthesize(kernel, directives));
        }
        for (const hls::ProcessNetwork& network : networks) {
            std::vector<hls::HlsResult> results;
            std::vector<const hls::HlsResult*> ptrs;
            results.reserve(network.processes().size());
            for (const hls::Process& p : network.processes()) {
                results.push_back(engine.synthesize(p.kernel, directives));
                ptrs.push_back(&results.back());
                visit(format("%s/%s/%s", variant, network.name().c_str(), p.name.c_str()),
                      results.back());
            }
            visit(format("%s/%s", variant, network.name().c_str()),
                  engine.assembleNetwork(network, ptrs));
        }
    }
}

// Digests of the VHDL and Verilog text of every golden HLS result and of
// the 40-seed random-netlist corpus, which brings in Fsm, BRAM and
// >64-bit nets. One line per netlist keeps the snapshot small while any
// change to either emitter's text on these designs fails.
TEST(Golden, HdlDigests) {
    std::string lines;
    const auto record = [&](const std::string& label, const Netlist& netlist) {
        lines += format("%s vhdl=%s verilog=%s\n", label.c_str(),
                        digest128(VhdlEmitter{}.emit(netlist)).hex().c_str(),
                        digest128(VerilogEmitter{}.emit(netlist)).hex().c_str());
    };
    forEachGoldenResult([&](const std::string& label, const hls::HlsResult& result) {
        record(label, result.netlist);
    });
    for (const std::uint64_t seed : testing::diffSimSeeds()) {
        record(format("rand/%llu", static_cast<unsigned long long>(seed)),
               testing::randomNetlist(seed, testing::sweepOptions(seed)));
    }
    expectMatchesGolden("hdl_digests", ".txt", lines);
}

// Digests of the artifact codec's bytes for every golden HLS result. The
// store keys and blobs are these bytes, so a change to the netlist's pin
// order, its names or the codec re-keys every store; this snapshot makes
// such a change a reviewed diff. Each payload must also decode and
// re-encode to itself.
TEST(Golden, ArtifactDigests) {
    std::string lines;
    forEachGoldenResult([&](const std::string& label, const hls::HlsResult& result) {
        const std::string bytes = hls::encodeHlsResult(result);
        EXPECT_EQ(hls::encodeHlsResult(hls::decodeHlsResult(bytes)), bytes) << label;
        lines += format("%s artifact=%s\n", label.c_str(), digest128(bytes).hex().c_str());
    });
    expectMatchesGolden("artifact_digests", ".txt", lines);
}

// The record of a flow run: every published event (kind, stage, detail,
// attempt; no time fields), the rendered diagnostics and the journal,
// for a cold run and then a warm rerun served from the artifact store.
// The graph mixes single-kernel nodes with the three-process dataflow
// network, and one process of the network fails HLS on every attempt, so
// the snapshot covers a synthesized node, a store hit, a degraded
// process and the network node that degrades with it.
class EventRecorder : public core::FlowEventSubscriber {
public:
    void onEvent(const core::FlowEvent& event) override { lines_ += event.render() + "\n"; }
    std::string take() { return std::exchange(lines_, {}); }

private:
    std::string lines_;
};

TEST(Golden, FlowRecord) {
    hls::KernelLibrary kernels;
    kernels.add(apps::makeMulKernel());
    kernels.add(apps::makeGaussKernel(64));
    kernels.add(apps::makeEdgeKernel(64));
    kernels.add(apps::makeStreamPipelineNetwork(64));
    const core::TaskGraph graph = core::parseDsl(R"(
object mixed extends App {
  tg nodes;
    tg node "MUL" i "A" i "B" i "return" end;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
    tg node "triStagePipe" is "din" is "dout" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
    tg link 'soc to ("triStagePipe","din") end;
    tg link ("triStagePipe","dout") to 'soc end;
    tg connect "MUL";
  tg end_edges;
}
)").graph;
    const std::string dir = ::testing::TempDir() + "/socgen_golden_flow";
    std::filesystem::remove_all(dir);
    const auto recorder = std::make_shared<EventRecorder>();
    core::FlowOptions options;
    options.outputDir = dir;
    options.injectHlsFailures = {"triStagePipe/stage1"};
    options.subscribers = {recorder};
    std::string snapshot;
    for (const char* run : {"cold", "warm"}) {
        const core::FlowResult result = core::Flow(options, kernels).run("mixed", graph);
        snapshot += format("== %s run: events\n", run) + recorder->take();
        snapshot += format("== %s run: diagnostics\n", run) + result.diagnostics.render() +
                    "\n";
    }
    snapshot += "== journal\n" +
                core::FlowJournal::open(dir + "/.socgen/journal/mixed.jsonl").renderText();
    std::filesystem::remove_all(dir);
    expectMatchesGolden("flow_record", ".txt", snapshot);
}

} // namespace
} // namespace socgen::rtl

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-golden") == 0) {
            socgen::rtl::g_update = true;
        }
    }
    if (const char* env = std::getenv("SOCGEN_UPDATE_GOLDEN");
        env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
        socgen::rtl::g_update = true;
    }
    return RUN_ALL_TESTS();
}
