#include "socgen/common/error.hpp"
#include "socgen/rtl/netlist.hpp"
#include "socgen/rtl/primitives.hpp"

#include <gtest/gtest.h>

namespace socgen::rtl {
namespace {

TEST(Netlist, BuildAndInspect) {
    Netlist n("simple");
    const NetId a = n.addNet("a", 8);
    const NetId b = n.addNet("b", 8);
    const NetId sum = n.addNet("sum", 8);
    n.addPort("a", PortDir::In, 8, a);
    n.addPort("b", PortDir::In, 8, b);
    n.addCell("add0", CellKind::Add, 8, {a, b}, {sum});
    n.addPort("sum", PortDir::Out, 8, sum);

    EXPECT_EQ(n.name(), "simple");
    EXPECT_EQ(n.nets().size(), 3u);
    EXPECT_EQ(n.cells().size(), 1u);
    EXPECT_EQ(n.ports().size(), 3u);
    EXPECT_EQ(n.countKind(CellKind::Add), 1u);
    EXPECT_EQ(n.countKind(CellKind::Mul), 0u);
    EXPECT_TRUE(n.hasPort("sum"));
    EXPECT_FALSE(n.hasPort("nope"));
    EXPECT_EQ(n.port("sum").dir, PortDir::Out);
    EXPECT_EQ(n.net(sum).driver, 0u);
    EXPECT_NO_THROW(n.check());
}

TEST(Netlist, MissingPortThrows) {
    Netlist n("x");
    EXPECT_THROW((void)n.port("absent"), Error);
}

TEST(Netlist, MultipleDriversRejected) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 4);
    const NetId out = n.addNet("out", 4);
    n.addPort("a", PortDir::In, 4, a);
    n.addCell("c1", CellKind::Not, 4, {a}, {out});
    EXPECT_THROW(n.addCell("c2", CellKind::Not, 4, {a}, {out}), Error);
}

TEST(Netlist, UndrivenNetFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("floating", 4);
    (void)a;
    EXPECT_THROW(n.check(), Error);
}

// check() remembers a pass; any later mutation must make the next check
// look at the netlist again.
TEST(Netlist, ChangeAfterPassingCheckIsCheckedAgain) {
    Netlist n = makeAdder("add", 8);
    EXPECT_NO_THROW(n.check());
    (void)n.addNet("floating", 4);
    EXPECT_THROW(n.check(), Error);

    Netlist pins = makeAdder("add", 8);
    pins.check();
    pins.addCell("bad", CellKind::Add, 8, {pins.ports().front().net}, {});  // Add needs 2 inputs
    EXPECT_THROW(pins.check(), Error);

    Netlist ported = makeAdder("add", 8);
    ported.check();
    const NetId k = ported.addNet("k", 4);
    ported.addCell("k", CellKind::Const, 4, {}, {k}, 1);
    EXPECT_NO_THROW(ported.check());
    ported.addPort("k_in", PortDir::In, 4, k);  // an input port on a cell-driven net
    EXPECT_THROW(ported.check(), Error);

    // A copy carries the verdict of what it copies, not of its target.
    Netlist copy = makeAdder("add", 8);
    copy.check();
    copy = n;
    EXPECT_THROW(copy.check(), Error);
}

TEST(Netlist, InputPortDrivenByCellFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 4);
    n.addPort("a", PortDir::In, 4, a);
    Netlist good("aux");
    (void)good;
    // Drive the input-port net from a constant cell: invalid.
    n.addCell("k", CellKind::Const, 4, {}, {a}, 1);
    EXPECT_THROW(n.check(), Error);
}

TEST(Netlist, WrongPinCountFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 4);
    const NetId out = n.addNet("out", 4);
    n.addPort("a", PortDir::In, 4, a);
    n.addCell("add", CellKind::Add, 4, {a}, {out});  // Add needs 2 inputs
    EXPECT_THROW(n.check(), Error);
}

TEST(Netlist, ZeroWidthNetFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 0);
    n.addPort("a", PortDir::In, 0, a);
    EXPECT_THROW(n.check(), Error);
}

TEST(Netlist, CombinationalCycleDetected) {
    Netlist n("cyclic");
    const NetId x = n.addNet("x", 1);
    const NetId y = n.addNet("y", 1);
    n.addCell("n1", CellKind::Not, 1, {y}, {x});
    n.addCell("n2", CellKind::Not, 1, {x}, {y});
    EXPECT_THROW((void)n.topoOrder(), Error);
}

TEST(Netlist, RegisterBreaksCycle) {
    // Counter: reg -> add -> reg is sequential, not a combinational cycle.
    const Netlist n = makeCounter("ctr", 8);
    EXPECT_NO_THROW(n.check());
    const auto order = n.topoOrder();
    // Only combinational cells appear in the order.
    for (const CellId id : order) {
        EXPECT_TRUE(isCombinational(n.cell(id).kind));
    }
}

TEST(Netlist, TopoOrderRespectsDependencies) {
    Netlist n("chain");
    const NetId a = n.addNet("a", 8);
    n.addPort("a", PortDir::In, 8, a);
    const NetId t1 = n.addNet("t1", 8);
    const NetId t2 = n.addNet("t2", 8);
    n.addCell("second", CellKind::Not, 8, {t1}, {t2});  // added first, depends on t1
    n.addCell("first", CellKind::Not, 8, {a}, {t1});
    const auto order = n.topoOrder();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(n.cell(order[0]).name, "first");
    EXPECT_EQ(n.cell(order[1]).name, "second");
}

TEST(PinSpecs, MatchCellSemantics) {
    EXPECT_EQ(pinSpec(CellKind::Const).inputs, 0);
    EXPECT_EQ(pinSpec(CellKind::Not).inputs, 1);
    EXPECT_EQ(pinSpec(CellKind::Add).inputs, 2);
    EXPECT_EQ(pinSpec(CellKind::Mux).inputs, 3);
    EXPECT_EQ(pinSpec(CellKind::Bram).inputs, 3);
    EXPECT_LT(pinSpec(CellKind::Reg).inputs, 0);  // variadic (d [, en])
}

TEST(CellKinds, NamesAndCombinationalFlag) {
    EXPECT_EQ(cellKindName(CellKind::Add), "ADD");
    EXPECT_EQ(cellKindName(CellKind::Bram), "BRAM");
    EXPECT_TRUE(isCombinational(CellKind::Mux));
    EXPECT_FALSE(isCombinational(CellKind::Reg));
    EXPECT_FALSE(isCombinational(CellKind::Bram));
    EXPECT_FALSE(isCombinational(CellKind::Fsm));
}

class PrimitiveWidths : public testing::TestWithParam<unsigned> {};

TEST_P(PrimitiveWidths, ReferenceCircuitsAreValid) {
    const unsigned width = GetParam();
    EXPECT_NO_THROW(makeCounter("c", width).check());
    EXPECT_NO_THROW(makeAdder("a", width).check());
    EXPECT_NO_THROW(makeMac("m", width).check());
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimitiveWidths, testing::Values(1u, 4u, 8u, 16u, 32u, 64u));

TEST(NetlistBuilder, BuildsConnectedDatapath) {
    NetlistBuilder b("dp");
    const NetId x = b.inputPort("x", 16);
    const NetId k = b.constant(3, 16);
    const NetId prod = b.binary(CellKind::Mul, x, k, 16);
    const NetId q = b.reg(prod, kInvalid, 16);
    b.outputPort("y", q);
    const Netlist& n = b.netlist();
    EXPECT_NO_THROW(n.check());
    EXPECT_EQ(n.countKind(CellKind::Mul), 1u);
    EXPECT_EQ(n.countKind(CellKind::Reg), 1u);
    EXPECT_EQ(n.countKind(CellKind::Const), 1u);
}

} // namespace
} // namespace socgen::rtl
