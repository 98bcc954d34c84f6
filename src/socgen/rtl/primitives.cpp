#include "socgen/rtl/primitives.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

namespace socgen::rtl {

NetId NetlistBuilder::freshNet(std::string_view base, unsigned width) {
    return netlist_.addNet(concat(base, "_", counter_++), width);
}

std::string NetlistBuilder::freshCellName(std::string_view base) {
    return concat(base, "_c", counter_++);
}

NetId NetlistBuilder::inputPort(std::string name, unsigned width) {
    const NetId net = netlist_.addNet(name, width);
    netlist_.addPort(std::move(name), PortDir::In, width, net);
    return net;
}

void NetlistBuilder::outputPort(std::string name, NetId net) {
    netlist_.addPort(std::move(name), PortDir::Out, netlist_.net(net).width, net);
}

NetId NetlistBuilder::constant(std::int64_t value, unsigned width) {
    const NetId out = freshNet("const", width);
    netlist_.addCell(freshCellName("const"), CellKind::Const, width, {}, {out}, value);
    return out;
}

NetId NetlistBuilder::unary(CellKind kind, NetId a, unsigned width) {
    const NetId out = freshNet(cellKindName(kind), width);
    netlist_.addCell(freshCellName(cellKindName(kind)), kind, width, {a}, {out});
    return out;
}

NetId NetlistBuilder::binary(CellKind kind, NetId a, NetId b, unsigned width) {
    const NetId out = freshNet(cellKindName(kind), width);
    netlist_.addCell(freshCellName(cellKindName(kind)), kind, width, {a, b}, {out});
    return out;
}

NetId NetlistBuilder::mux(NetId sel, NetId whenZero, NetId whenNonZero, unsigned width) {
    const NetId out = freshNet("mux", width);
    netlist_.addCell(freshCellName("mux"), CellKind::Mux, width, {sel, whenZero, whenNonZero},
                     {out});
    return out;
}

NetId NetlistBuilder::reg(NetId d, NetId en, unsigned width, std::string_view name) {
    const NetId out = freshNet(name.empty() ? "reg" : name, width);
    const NetId inputs[] = {d, en};
    netlist_.addCell(freshCellName(name.empty() ? "reg" : name), CellKind::Reg, width,
                     std::span<const NetId>(inputs, en != kInvalid ? 2 : 1),
                     std::span(&out, 1));
    return out;
}

NetId NetlistBuilder::bram(NetId addr, NetId wdata, NetId we, unsigned width,
                           std::int64_t depth, std::string_view name) {
    const NetId out = freshNet(name.empty() ? "bram" : name, width);
    netlist_.addCell(freshCellName(name.empty() ? "bram" : name), CellKind::Bram, width,
                     {addr, wdata, we}, {out}, depth);
    return out;
}

NetId NetlistBuilder::fsm(std::vector<NetId> statusInputs, std::int64_t states,
                          std::string_view name) {
    const NetId out = freshNet(name.empty() ? "fsm" : name, 16);
    netlist_.addCell(freshCellName(name.empty() ? "fsm" : name), CellKind::Fsm, 16,
                     statusInputs, std::span(&out, 1), states);
    return out;
}

Netlist makeCounter(std::string name, unsigned width) {
    NetlistBuilder b(std::move(name));
    const NetId en = b.inputPort("en", 1);
    // count register feeds an adder that feeds it back.
    const NetId one = b.constant(1, width);
    // Build the feedback by creating the register net first via a two-step:
    // reg output net is created by reg(); but its input is the adder that
    // consumes the reg output. Create a placeholder net for the reg output
    // is not possible with the builder, so wire it manually.
    Netlist& n = b.netlist();
    const NetId q = n.addNet("count_q", width);
    const NetId sum = n.addNet("count_next", width);
    n.addCell("count_add", CellKind::Add, width, {q, one}, {sum});
    n.addCell("count_reg", CellKind::Reg, width, {sum, en}, {q});
    n.addPort("count", PortDir::Out, width, q);
    return std::move(b.netlist());
}

Netlist makeAdder(std::string name, unsigned width) {
    NetlistBuilder b(std::move(name));
    const NetId a = b.inputPort("a", width);
    const NetId bb = b.inputPort("b", width);
    const NetId sum = b.binary(CellKind::Add, a, bb, width);
    b.outputPort("sum", sum);
    return std::move(b.netlist());
}

Netlist makeMac(std::string name, unsigned width) {
    NetlistBuilder b(std::move(name));
    const NetId a = b.inputPort("a", width);
    const NetId bb = b.inputPort("b", width);
    const NetId en = b.inputPort("en", 1);
    Netlist& n = b.netlist();
    const NetId acc = n.addNet("acc_q", width);
    const NetId prod = b.binary(CellKind::Mul, a, bb, width);
    const NetId next = n.addNet("acc_next", width);
    n.addCell("acc_add", CellKind::Add, width, {acc, prod}, {next});
    n.addCell("acc_reg", CellKind::Reg, width, {next, en}, {acc});
    n.addPort("acc", PortDir::Out, width, acc);
    return std::move(b.netlist());
}

Netlist makeFifo(std::string name, unsigned width, std::uint32_t depth,
                 std::uint32_t initialTokens) {
    require(depth >= 1, "fifo depth must be >= 1");
    require(initialTokens <= depth, "fifo initial tokens exceed depth");
    // Pointer/occupancy arithmetic in 16 bits (depths are FIFO-sized, not
    // memory-sized; deep buffers belong in BRAM-backed channels).
    require(depth <= 0xFFFF, "fifo depth exceeds 16-bit bookkeeping");
    constexpr unsigned kPtrW = 16;

    NetlistBuilder b(std::move(name));
    Netlist& n = b.netlist();
    // About 24 fixed nets and cells, then 4 per slot and 3 per read-mux
    // stage, one net per cell; under three pins a cell.
    const std::size_t size = 24 + 7 * static_cast<std::size_t>(depth);
    n.reserve(size, size, 3 * size);

    const NetId inData = b.inputPort("in_tdata", width);
    const NetId inValid = b.inputPort("in_tvalid", 1);
    const NetId outReady = b.inputPort("out_tready", 1);

    // State registers (feedback, so the nets are created by hand like
    // makeCounter's): occupancy count, write pointer, read pointer.
    const NetId countQ = n.addNet("count_q", kPtrW);
    const NetId wptrQ = n.addNet("wptr_q", kPtrW);
    const NetId rptrQ = n.addNet("rptr_q", kPtrW);

    // Registers reset to zero, so non-zero initial occupancy is modelled
    // by a one-shot "primed" flag: until the first clock edge the count
    // and write pointer read as their initial-token values, afterwards as
    // the registered state (which the first edge computes *from* the
    // initial values, making the hand-off seamless).
    NetId effCount = countQ;
    NetId effWptr = wptrQ;
    if (initialTokens > 0) {
        const NetId primedQ = n.addNet("primed_q", 1);
        const NetId one1 = b.constant(1, 1);
        n.addCell("primed_reg", CellKind::Reg, 1, {one1}, {primedQ});
        const NetId initCount = b.constant(static_cast<std::int64_t>(initialTokens), kPtrW);
        const NetId initWptr =
            b.constant(static_cast<std::int64_t>(initialTokens % depth), kPtrW);
        effCount = b.mux(primedQ, initCount, countQ, kPtrW);
        effWptr = b.mux(primedQ, initWptr, wptrQ, kPtrW);
    }

    const NetId depthC = b.constant(static_cast<std::int64_t>(depth), kPtrW);
    const NetId zeroC = b.constant(0, kPtrW);

    const NetId inReady = b.binary(CellKind::Lt, effCount, depthC, 1);
    const NetId outValid = b.binary(CellKind::Ne, effCount, zeroC, 1);
    const NetId push = b.binary(CellKind::And, inValid, inReady, 1);
    const NetId pop = b.binary(CellKind::And, outReady, outValid, 1);

    // count' = count + push - pop (no over/underflow: push implies
    // count < depth, pop implies count > 0).
    const NetId countPlus = b.binary(CellKind::Add, effCount, push, kPtrW);
    const NetId countNext = b.binary(CellKind::Sub, countPlus, pop, kPtrW);
    n.addCell("count_reg", CellKind::Reg, kPtrW, {countNext}, {countQ});

    const NetId wptrPlus = b.binary(CellKind::Add, effWptr, push, kPtrW);
    const NetId wptrNext = b.binary(CellKind::Mod, wptrPlus, depthC, kPtrW);
    n.addCell("wptr_reg", CellKind::Reg, kPtrW, {wptrNext}, {wptrQ});

    const NetId rptrPlus = b.binary(CellKind::Add, rptrQ, pop, kPtrW);
    const NetId rptrNext = b.binary(CellKind::Mod, rptrPlus, depthC, kPtrW);
    n.addCell("rptr_reg", CellKind::Reg, kPtrW, {rptrNext}, {rptrQ});

    // One register slot per entry: written when the write pointer selects
    // it during a push; the read face muxes the slot the read pointer
    // selects. Slots reset to zero, which is exactly the value the
    // initial tokens must carry.
    std::vector<NetId> slots;
    slots.reserve(depth);
    for (std::uint32_t s = 0; s < depth; ++s) {
        const NetId slotC = b.constant(static_cast<std::int64_t>(s), kPtrW);
        const NetId wSel = b.binary(CellKind::Eq, effWptr, slotC, 1);
        const NetId we = b.binary(CellKind::And, push, wSel, 1);
        const NetId slotQ =
            n.addNet(concat("slot", s, "_q"), width);
        n.addCell(concat("slot", s, "_reg"), CellKind::Reg, width,
                  {inData, we}, {slotQ});
        slots.push_back(slotQ);
    }
    NetId outData = slots[0];
    for (std::uint32_t s = 1; s < depth; ++s) {
        const NetId slotC = b.constant(static_cast<std::int64_t>(s), kPtrW);
        const NetId rSel = b.binary(CellKind::Eq, rptrQ, slotC, 1);
        outData = b.mux(rSel, outData, slots[s], width);
    }

    b.outputPort("in_tready", inReady);
    b.outputPort("out_tdata", outData);
    b.outputPort("out_tvalid", outValid);
    return std::move(b.netlist());
}

} // namespace socgen::rtl
