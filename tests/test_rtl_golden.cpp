// Golden-file snapshot tests for the Verilog and VHDL emitters: the
// exact text emitted for a set of reference designs is committed under
// tests/golden/ and any drift fails the suite. Regenerate on purpose
// with `test_rtl_golden --update-golden` (or SOCGEN_UPDATE_GOLDEN=1) and
// review the diff like any other code change.

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/rtl/codegen_emit.hpp"
#include "socgen/rtl/compiled_program.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

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
