// Golden-file snapshot tests for the Verilog and VHDL emitters and for
// the record a flow run leaves: the exact text for a set of reference
// designs and one reference flow is committed under tests/golden/ and
// any drift fails the suite. Regenerate on purpose
// with `test_rtl_golden --update-golden` (or SOCGEN_UPDATE_GOLDEN=1) and
// review the diff like any other code change.

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/flow.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/rtl/codegen_emit.hpp"
#include "socgen/rtl/compiled_program.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
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

// The generated-C++ simulator source for the same counter. Pins the
// emitter's exact output — the evalOp-mirroring expressions, the
// deferred-publication step order, the extern "C" ABI — so any emitter
// change is a reviewed diff, not a silent semantic drift. No host
// compiler is needed: this snapshots the source, not the object.
TEST(Golden, CodegenCounter8) {
    const Netlist netlist = makeCounter("ctr", 8);
    const CodegenUnit unit = emitCodegenUnit(netlist, compileProgram(netlist));
    expectMatchesGolden("codegen_ctr8", ".cpp", unit.source);
}

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

/// Saves an environment variable, unsets it, and restores it on scope
/// exit (copy of the diff-sim helper; the suites are independent binaries).
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

TEST(Golden, FlowRecord) {
    // jobs=1 is part of the record (the flow-begin line and the serial
    // stage order), so the SOCGEN_FLOW_JOBS override is lifted for the run.
    const EnvGuard serialFlow("SOCGEN_FLOW_JOBS");
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
    const std::string dir = testing::TempDir() + "/socgen_golden_flow";
    std::filesystem::remove_all(dir);
    const auto recorder = std::make_shared<EventRecorder>();
    core::FlowOptions options;
    options.jobs = 1;
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
