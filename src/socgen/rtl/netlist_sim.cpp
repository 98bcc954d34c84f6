#include "socgen/rtl/netlist_sim.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

namespace socgen::rtl {

NetlistSimulator::NetlistSimulator(const Netlist& netlist)
    : netlist_(netlist),
      order_(netlist.topoOrder()),
      netValues_(netlist.nets().size(), 0),
      state_(netlist.cells().size(), 0),
      brams_(netlist.cells().size()) {
    for (CellId id = 0; id < netlist_.cells().size(); ++id) {
        const auto& c = netlist_.cell(id);
        if (c.kind == CellKind::Bram) {
            brams_[id].assign(static_cast<std::size_t>(c.param), 0);
        }
    }
}

void NetlistSimulator::setInput(std::string_view port, std::uint64_t value) {
    const Port& p = netlist_.port(port);
    if (p.dir != PortDir::In) {
        throw SimulationError(format("cannot drive output port '%s'",
                                     std::string(port).c_str()));
    }
    netValues_[p.net] = truncate(value, p.width);
}

std::uint64_t NetlistSimulator::truncate(std::uint64_t value, unsigned width) const {
    if (width >= 64) {
        return value;
    }
    return value & ((1ULL << width) - 1ULL);
}

std::uint64_t NetlistSimulator::evalCell(const Cell& c) const {
    const auto in = [&](std::size_t i) { return netValues_[netlist_.inputs(c)[i]]; };
    switch (c.kind) {
    case CellKind::Const: return static_cast<std::uint64_t>(c.param);
    case CellKind::Not: return ~in(0);
    case CellKind::And: return in(0) & in(1);
    case CellKind::Or: return in(0) | in(1);
    case CellKind::Xor: return in(0) ^ in(1);
    case CellKind::Add: return in(0) + in(1);
    case CellKind::Sub: return in(0) - in(1);
    case CellKind::Mul: return in(0) * in(1);
    case CellKind::Div: return in(1) == 0 ? ~0ULL : in(0) / in(1);
    case CellKind::Mod: return in(1) == 0 ? in(0) : in(0) % in(1);
    case CellKind::Shl: return in(1) >= 64 ? 0 : in(0) << in(1);
    case CellKind::Shr: return in(1) >= 64 ? 0 : in(0) >> in(1);
    case CellKind::Eq: return in(0) == in(1) ? 1 : 0;
    case CellKind::Ne: return in(0) != in(1) ? 1 : 0;
    case CellKind::Lt: return in(0) < in(1) ? 1 : 0;
    case CellKind::Le: return in(0) <= in(1) ? 1 : 0;
    case CellKind::Gt: return in(0) > in(1) ? 1 : 0;
    case CellKind::Ge: return in(0) >= in(1) ? 1 : 0;
    case CellKind::Mux: return in(0) == 0 ? in(1) : in(2);
    default:
        throw SimulationError("evalCell called on sequential cell");
    }
}

void NetlistSimulator::evaluate() {
    // Sequential cell outputs reflect stored state.
    for (CellId id = 0; id < netlist_.cells().size(); ++id) {
        const auto& c = netlist_.cell(id);
        if (!isCombinational(c.kind)) {
            netValues_[netlist_.outputs(c)[0]] = truncate(state_[id], c.width);
        }
    }
    for (CellId id : order_) {
        const auto& c = netlist_.cell(id);
        netValues_[netlist_.outputs(c)[0]] = truncate(evalCell(c), c.width);
    }
}

void NetlistSimulator::step() {
    evaluate();
    for (CellId id = 0; id < netlist_.cells().size(); ++id) {
        const auto& c = netlist_.cell(id);
        const std::span<const NetId> in = netlist_.inputs(c);
        switch (c.kind) {
        case CellKind::Reg: {
            const bool enabled = in.size() < 2 || netValues_[in[1]] != 0;
            if (enabled) {
                state_[id] = truncate(netValues_[in[0]], c.width);
            }
            break;
        }
        case CellKind::Bram: {
            const auto addr = static_cast<std::size_t>(netValues_[in[0]]);
            auto& mem = brams_[id];
            if (addr >= mem.size()) {
                throw SimulationError(format("bram '%s' address %zu out of range %zu",
                                             c.name.c_str(), addr, mem.size()));
            }
            if (netValues_[in[2]] != 0) {
                mem[addr] = truncate(netValues_[in[1]], c.width);
            }
            state_[id] = mem[addr];  // synchronous read (read-after-write)
            break;
        }
        case CellKind::Fsm: {
            bool anyStatus = in.empty();
            for (NetId inNet : in) {
                anyStatus = anyStatus || netValues_[inNet] != 0;
            }
            if (anyStatus && state_[id] + 1 < static_cast<std::uint64_t>(c.param)) {
                ++state_[id];
            }
            break;
        }
        default:
            break;
        }
    }
    ++cycles_;
}

std::uint64_t NetlistSimulator::output(std::string_view port) const {
    return netValues_[netlist_.port(port).net];
}

std::uint64_t NetlistSimulator::netValue(NetId id) const {
    require(id < netValues_.size(), "net id out of range");
    return netValues_[id];
}

std::vector<std::uint64_t> NetlistSimulator::memoryContents(CellId id) const {
    require(id < brams_.size(), "cell id out of range");
    return brams_[id];
}

void NetlistSimulator::reset() {
    std::fill(state_.begin(), state_.end(), 0);
    for (auto& mem : brams_) {
        std::fill(mem.begin(), mem.end(), 0);
    }
    cycles_ = 0;
}

} // namespace socgen::rtl
