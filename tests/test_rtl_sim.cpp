#include "socgen/common/error.hpp"
#include "socgen/rtl/netlist_sim.hpp"
#include "socgen/rtl/primitives.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

namespace socgen::rtl {
namespace {

TEST(NetlistSim, CombinationalAdder) {
    const Netlist n = makeAdder("add", 16);
    NetlistSimulator sim(n);
    sim.setInput("a", 40);
    sim.setInput("b", 2);
    sim.evaluate();
    EXPECT_EQ(sim.output("sum"), 42u);
    sim.setInput("a", 0xFFFF);
    sim.setInput("b", 1);
    sim.evaluate();
    EXPECT_EQ(sim.output("sum"), 0u);  // wraps at width
}

TEST(NetlistSim, CounterCountsWithEnable) {
    const Netlist n = makeCounter("ctr", 8);
    NetlistSimulator sim(n);
    sim.setInput("en", 1);
    for (int i = 0; i < 5; ++i) {
        sim.step();
    }
    sim.evaluate();
    EXPECT_EQ(sim.output("count"), 5u);
    sim.setInput("en", 0);
    for (int i = 0; i < 3; ++i) {
        sim.step();
    }
    sim.evaluate();
    EXPECT_EQ(sim.output("count"), 5u);  // frozen while disabled
    EXPECT_EQ(sim.cycleCount(), 8u);
}

TEST(NetlistSim, CounterWrapsAtWidth) {
    const Netlist n = makeCounter("ctr", 4);
    NetlistSimulator sim(n);
    sim.setInput("en", 1);
    for (int i = 0; i < 20; ++i) {
        sim.step();
    }
    sim.evaluate();
    EXPECT_EQ(sim.output("count"), 20u % 16u);
}

TEST(NetlistSim, MacAccumulates) {
    const Netlist n = makeMac("mac", 32);
    NetlistSimulator sim(n);
    sim.setInput("en", 1);
    sim.setInput("a", 3);
    sim.setInput("b", 5);
    sim.step();  // acc = 15
    sim.setInput("a", 2);
    sim.setInput("b", 10);
    sim.step();  // acc = 35
    sim.evaluate();
    EXPECT_EQ(sim.output("acc"), 35u);
    sim.reset();
    sim.evaluate();
    EXPECT_EQ(sim.output("acc"), 0u);
}

// gtest names each case after the raw bytes of its parameter, so the
// struct carries an explicit zero word where alignment padding would sit:
// padding bytes are indeterminate and made the names change between builds.
struct BinCase {
    BinCase(CellKind k, std::uint64_t x, std::uint64_t y, std::uint64_t want)
        : kind(k), a(x), b(y), expected(want) {}
    CellKind kind;
    std::uint32_t zero = 0;
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t expected;
};
static_assert(std::has_unique_object_representations_v<BinCase>);

class BinaryCellSim : public testing::TestWithParam<BinCase> {};

TEST_P(BinaryCellSim, ComputesExpected) {
    const BinCase& c = GetParam();
    NetlistBuilder builder("bin");
    const NetId a = builder.inputPort("a", 32);
    const NetId b = builder.inputPort("b", 32);
    const NetId out = builder.binary(c.kind, a, b, 32);
    builder.outputPort("y", out);
    NetlistSimulator sim(builder.netlist());
    sim.setInput("a", c.a);
    sim.setInput("b", c.b);
    sim.evaluate();
    EXPECT_EQ(sim.output("y"), c.expected) << cellKindName(c.kind);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BinaryCellSim,
    testing::Values(BinCase{CellKind::Add, 7, 8, 15}, BinCase{CellKind::Sub, 7, 8, 0xFFFFFFFF},
                    BinCase{CellKind::Mul, 6, 7, 42}, BinCase{CellKind::Div, 42, 5, 8},
                    BinCase{CellKind::Div, 42, 0, 0xFFFFFFFF},
                    BinCase{CellKind::Mod, 42, 5, 2}, BinCase{CellKind::Mod, 42, 0, 42},
                    BinCase{CellKind::And, 0b1100, 0b1010, 0b1000},
                    BinCase{CellKind::Or, 0b1100, 0b1010, 0b1110},
                    BinCase{CellKind::Xor, 0b1100, 0b1010, 0b0110},
                    BinCase{CellKind::Shl, 3, 4, 48}, BinCase{CellKind::Shr, 48, 4, 3},
                    BinCase{CellKind::Eq, 5, 5, 1}, BinCase{CellKind::Eq, 5, 6, 0},
                    BinCase{CellKind::Ne, 5, 6, 1}, BinCase{CellKind::Lt, 5, 6, 1},
                    BinCase{CellKind::Le, 6, 6, 1}, BinCase{CellKind::Gt, 7, 6, 1},
                    BinCase{CellKind::Ge, 6, 7, 0}));

TEST(NetlistSim, MuxSelects) {
    NetlistBuilder b("mux");
    const NetId sel = b.inputPort("sel", 1);
    const NetId x = b.inputPort("x", 8);
    const NetId y = b.inputPort("y", 8);
    b.outputPort("o", b.mux(sel, x, y, 8));
    NetlistSimulator sim(b.netlist());
    sim.setInput("x", 11);
    sim.setInput("y", 22);
    sim.setInput("sel", 0);
    sim.evaluate();
    EXPECT_EQ(sim.output("o"), 11u);
    sim.setInput("sel", 1);
    sim.evaluate();
    EXPECT_EQ(sim.output("o"), 22u);
}

TEST(NetlistSim, BramWritesThenReads) {
    NetlistBuilder b("mem");
    const NetId addr = b.inputPort("addr", 8);
    const NetId wdata = b.inputPort("wdata", 16);
    const NetId we = b.inputPort("we", 1);
    const NetId rdata = b.bram(addr, wdata, we, 16, 64);
    b.outputPort("rdata", rdata);
    NetlistSimulator sim(b.netlist());

    sim.setInput("addr", 5);
    sim.setInput("wdata", 1234);
    sim.setInput("we", 1);
    sim.step();  // write 1234 @5; synchronous read-after-write
    sim.setInput("we", 0);
    sim.evaluate();
    EXPECT_EQ(sim.output("rdata"), 1234u);

    sim.setInput("addr", 6);
    sim.step();  // read empty slot
    sim.evaluate();
    EXPECT_EQ(sim.output("rdata"), 0u);
}

TEST(NetlistSim, BramOutOfRangeThrows) {
    NetlistBuilder b("mem");
    const NetId addr = b.inputPort("addr", 8);
    const NetId wdata = b.inputPort("wdata", 16);
    const NetId we = b.inputPort("we", 1);
    b.outputPort("rdata", b.bram(addr, wdata, we, 16, 4));
    NetlistSimulator sim(b.netlist());
    sim.setInput("addr", 9);
    EXPECT_THROW(sim.step(), SimulationError);
}

TEST(NetlistSim, FsmAdvancesAndSaturates) {
    NetlistBuilder b("fsm");
    const NetId go = b.inputPort("go", 1);
    const NetId state = b.fsm({go}, 4);
    b.outputPort("state", state);
    NetlistSimulator sim(b.netlist());
    sim.setInput("go", 0);
    sim.step();
    sim.evaluate();
    EXPECT_EQ(sim.output("state"), 0u);
    sim.setInput("go", 1);
    for (int i = 0; i < 10; ++i) {
        sim.step();
    }
    sim.evaluate();
    EXPECT_EQ(sim.output("state"), 3u);  // saturates at states-1
}

TEST(NetlistSim, DrivingOutputPortThrows) {
    const Netlist n = makeAdder("add", 8);
    NetlistSimulator sim(n);
    EXPECT_THROW(sim.setInput("sum", 1), SimulationError);
}

} // namespace
} // namespace socgen::rtl
