#include "socgen/common/error.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/sim_backend.hpp"
#include "socgen/rtl/vcd.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"

#include <gtest/gtest.h>

namespace socgen::rtl {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
    return haystack.find(needle) != std::string::npos;
}

TEST(Verilog, AdderModuleStructure) {
    const std::string v = VerilogEmitter{}.emit(makeAdder("my_adder", 16));
    EXPECT_TRUE(contains(v, "module my_adder ("));
    EXPECT_TRUE(contains(v, "input wire clk"));
    EXPECT_TRUE(contains(v, "input wire rst"));
    EXPECT_TRUE(contains(v, "input wire [15:0] a"));
    EXPECT_TRUE(contains(v, "output wire [15:0] sum"));
    EXPECT_TRUE(contains(v, "endmodule"));
    EXPECT_TRUE(contains(v, " + "));
}

TEST(Verilog, SingleBitPortsHaveNoRange) {
    NetlistBuilder b("bit");
    const NetId x = b.inputPort("x", 1);
    b.outputPort("y", b.unary(CellKind::Not, x, 1));
    const std::string v = VerilogEmitter{}.emit(b.netlist());
    EXPECT_TRUE(contains(v, "input wire x"));
    EXPECT_FALSE(contains(v, "input wire [0:0]"));
    EXPECT_TRUE(contains(v, "~"));
}

TEST(Verilog, SequentialCellsUseAlwaysBlocks) {
    const std::string v = VerilogEmitter{}.emit(makeCounter("ctr", 8));
    EXPECT_TRUE(contains(v, "always @(posedge clk)"));
    EXPECT_TRUE(contains(v, "if (rst)"));
    EXPECT_TRUE(contains(v, "<="));
}

TEST(Verilog, BramDeclaresMemoryArray) {
    NetlistBuilder b("memmod");
    const NetId addr = b.inputPort("addr", 8);
    const NetId wdata = b.inputPort("wdata", 16);
    const NetId we = b.inputPort("we", 1);
    b.outputPort("rdata", b.bram(addr, wdata, we, 16, 128, "tbl"));
    const std::string v = VerilogEmitter{}.emit(b.netlist());
    EXPECT_TRUE(contains(v, "_mem [0:127];"));
}

TEST(Verilog, MuxEmitsTernary) {
    NetlistBuilder b("muxmod");
    const NetId sel = b.inputPort("sel", 1);
    const NetId a = b.inputPort("a", 8);
    const NetId c = b.inputPort("b", 8);
    b.outputPort("y", b.mux(sel, a, c, 8));
    const std::string v = VerilogEmitter{}.emit(b.netlist());
    EXPECT_TRUE(contains(v, "?"));
    EXPECT_TRUE(contains(v, ":"));
}

TEST(Verilog, DeterministicAndRejectsInvalid) {
    const Netlist n = makeMac("mac", 16);
    EXPECT_EQ(VerilogEmitter{}.emit(n), VerilogEmitter{}.emit(n));
    Netlist bad("bad");
    (void)bad.addNet("floating", 4);
    EXPECT_THROW((void)VerilogEmitter{}.emit(bad), Error);
}

// Emitting checks the netlist; a netlist changed after it emitted cleanly
// is checked again, by both emitters.
TEST(Verilog, NetlistChangedAfterEmitIsRejected) {
    Netlist n = makeMac("mac", 16);
    (void)VerilogEmitter{}.emit(n);
    (void)VhdlEmitter{}.emit(n);
    (void)n.addNet("floating", 4);
    EXPECT_THROW((void)VerilogEmitter{}.emit(n), Error);
    EXPECT_THROW((void)VhdlEmitter{}.emit(n), Error);
}

// ---------------------------------------------------------------------------
// VCD traces

TEST(Vcd, HeaderDeclaresAllPorts) {
    const Netlist n = makeCounter("ctr", 8);
    const auto simPtr = makeSimulator(n);
    Simulator& sim = *simPtr;
    VcdTrace trace(n, sim);
    sim.setInput("en", 1);
    sim.evaluate();
    trace.sample();
    const std::string vcd = trace.render();
    EXPECT_TRUE(contains(vcd, "$timescale"));
    EXPECT_TRUE(contains(vcd, "$scope module ctr $end"));
    EXPECT_TRUE(contains(vcd, "$var wire 1 "));
    EXPECT_TRUE(contains(vcd, "$var wire 8 "));
    EXPECT_TRUE(contains(vcd, "$enddefinitions $end"));
}

TEST(Vcd, RecordsValueChangesOnly) {
    const Netlist n = makeCounter("ctr", 8);
    const auto simPtr = makeSimulator(n);
    Simulator& sim = *simPtr;
    VcdTrace trace(n, sim);
    sim.setInput("en", 0);
    for (int i = 0; i < 5; ++i) {
        sim.step();
        sim.evaluate();
        trace.sample();  // nothing changes after the first sample
    }
    const std::string quiet = trace.render();
    // Exactly one timestamp section with changes (#0) plus the closing
    // timestamp.
    EXPECT_TRUE(contains(quiet, "#0"));
    EXPECT_FALSE(contains(quiet, "#1\n"));
    EXPECT_EQ(trace.sampleCount(), 5u);
}

TEST(Vcd, CountingProducesPerCycleChanges) {
    const Netlist n = makeCounter("ctr", 8);
    const auto simPtr = makeSimulator(n);
    Simulator& sim = *simPtr;
    VcdTrace trace(n, sim);
    sim.setInput("en", 1);
    for (int i = 0; i < 4; ++i) {
        sim.step();
        sim.evaluate();
        trace.sample();
    }
    const std::string vcd = trace.render();
    EXPECT_TRUE(contains(vcd, "#0"));
    EXPECT_TRUE(contains(vcd, "#1"));
    EXPECT_TRUE(contains(vcd, "#3"));
    EXPECT_TRUE(contains(vcd, "b000"));  // multi-bit values in binary form
}

TEST(Vcd, ExtraNetsAreTraced) {
    NetlistBuilder b("extra");
    const NetId x = b.inputPort("x", 4);
    const NetId doubled = b.binary(CellKind::Add, x, x, 4);   // internal net
    const NetId plusOne = b.binary(CellKind::Add, doubled, b.constant(1, 4), 4);
    b.outputPort("y", plusOne);
    const Netlist& n = b.netlist();
    const auto simPtr = makeSimulator(n);
    Simulator& sim = *simPtr;
    VcdTrace trace(n, sim, {doubled});
    sim.setInput("x", 3);
    sim.evaluate();
    trace.sample();
    EXPECT_TRUE(contains(trace.render(), "ADD"));  // the internal net's name
    EXPECT_EQ(sim.output("y"), 7u);
}

} // namespace
} // namespace socgen::rtl
