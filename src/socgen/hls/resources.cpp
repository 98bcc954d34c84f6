#include "socgen/hls/resources.hpp"

#include "socgen/common/strings.hpp"

namespace socgen::hls {

ResourceEstimate& ResourceEstimate::operator+=(const ResourceEstimate& other) {
    lut += other.lut;
    ff += other.ff;
    bram18 += other.bram18;
    dsp += other.dsp;
    return *this;
}

std::string ResourceEstimate::str() const {
    return format("LUT=%lld FF=%lld RAMB18=%lld DSP=%lld", static_cast<long long>(lut),
                  static_cast<long long>(ff), static_cast<long long>(bram18),
                  static_cast<long long>(dsp));
}

std::int64_t dspForMul(unsigned width) {
    if (width <= 18) {
        return 1;
    }
    if (width <= 25) {
        return 2;
    }
    if (width <= 35) {
        return 2;  // 25x18 + correction logic absorbed into fabric
    }
    return 4;
}

std::int64_t bram18For(std::int64_t depth, unsigned width) {
    const std::int64_t bits = depth * width;
    if (bits <= 1024) {
        return 0;  // distributed LUTRAM
    }
    const std::int64_t perBlock = 18 * 1024;
    return (bits + perBlock - 1) / perBlock;
}

ResourceEstimate CostModel::priceCell(const rtl::Cell& cell) const {
    using rtl::CellKind;
    const std::int64_t w = cell.width;
    ResourceEstimate r;
    switch (cell.kind) {
    case CellKind::Const:
        break;  // constants propagate into LUT init
    case CellKind::Not:
        r.lut = (w + 1) / 2;
        break;
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
        r.lut = (w + 1) / 2;
        break;
    case CellKind::Add:
    case CellKind::Sub:
        r.lut = w;
        break;
    case CellKind::Mul:
        r.dsp = dspForMul(cell.width);
        r.lut = 12;  // pipeline glue
        r.ff = 2 * w;
        break;
    case CellKind::Div:
    case CellKind::Mod:
        r.lut = 34 * w;  // iterative restoring divider
        r.ff = 45 * w;
        break;
    case CellKind::Shl:
    case CellKind::Shr:
        r.lut = 2 * w;  // barrel shifter
        break;
    case CellKind::Eq:
    case CellKind::Ne:
    case CellKind::Lt:
    case CellKind::Le:
    case CellKind::Gt:
    case CellKind::Ge:
        r.lut = (w + 1) / 2 + 1;
        break;
    case CellKind::Mux:
        r.lut = (w + 1) / 2;
        break;
    case CellKind::Reg:
        r.ff = w;
        r.lut = cell.inputCount > 1 ? (w + 3) / 4 : 0;  // clock-enable gating
        break;
    case CellKind::Bram:
        r.bram18 = bram18For(cell.param, cell.width);
        r.lut = r.bram18 == 0 ? (cell.param * w) / 32 + 4 : 6;
        break;
    case CellKind::Fsm: {
        const std::int64_t states = cell.param;
        r.lut = 3 * states + 24;
        r.ff = states / 2 + 16;
        break;
    }
    }
    return r;
}

ResourceEstimate CostModel::priceNetlist(const rtl::Netlist& netlist) const {
    ResourceEstimate total;
    for (const auto& cell : netlist.cells()) {
        total += priceCell(cell);
    }
    return total;
}

ResourceEstimate CostModel::axiLitePortCost(unsigned width) const {
    // Address decode + one read/write register pair per port.
    return ResourceEstimate{18 + width / 2, 2 * width, 0, 0};
}

ResourceEstimate CostModel::axiStreamPortCost(unsigned width) const {
    // Skid buffer (two data registers) + handshake.
    return ResourceEstimate{12 + width / 2, 2 * width + 4, 0, 0};
}

ResourceEstimate CostModel::coreOverhead() const {
    // ap_start/ap_done control, reset synchronisers, status register.
    return ResourceEstimate{96, 128, 0, 0};
}

} // namespace socgen::hls
