#include "socgen/rtl/netlist.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>

namespace socgen::rtl {

std::string_view cellKindName(CellKind kind) {
    switch (kind) {
    case CellKind::Const: return "CONST";
    case CellKind::Not: return "NOT";
    case CellKind::And: return "AND";
    case CellKind::Or: return "OR";
    case CellKind::Xor: return "XOR";
    case CellKind::Add: return "ADD";
    case CellKind::Sub: return "SUB";
    case CellKind::Mul: return "MUL";
    case CellKind::Div: return "DIV";
    case CellKind::Mod: return "MOD";
    case CellKind::Shl: return "SHL";
    case CellKind::Shr: return "SHR";
    case CellKind::Eq: return "EQ";
    case CellKind::Ne: return "NE";
    case CellKind::Lt: return "LT";
    case CellKind::Le: return "LE";
    case CellKind::Gt: return "GT";
    case CellKind::Ge: return "GE";
    case CellKind::Mux: return "MUX";
    case CellKind::Reg: return "REG";
    case CellKind::Bram: return "BRAM";
    case CellKind::Fsm: return "FSM";
    }
    return "?";
}

bool isCombinational(CellKind kind) {
    switch (kind) {
    case CellKind::Reg:
    case CellKind::Bram:
    case CellKind::Fsm:
        return false;
    default:
        return true;
    }
}

PinSpec pinSpec(CellKind kind) {
    switch (kind) {
    case CellKind::Const: return {0, 1};
    case CellKind::Not: return {1, 1};
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
    case CellKind::Add:
    case CellKind::Sub:
    case CellKind::Mul:
    case CellKind::Div:
    case CellKind::Mod:
    case CellKind::Shl:
    case CellKind::Shr:
    case CellKind::Eq:
    case CellKind::Ne:
    case CellKind::Lt:
    case CellKind::Le:
    case CellKind::Gt:
    case CellKind::Ge: return {2, 1};
    case CellKind::Mux: return {3, 1};
    case CellKind::Reg: return {-1, 1};  // d [, en]
    case CellKind::Bram: return {3, 1};  // addr, wdata, we
    case CellKind::Fsm: return {-1, 1};
    }
    return {0, 0};
}

namespace {

template <typename T>
void grow(std::vector<T>& table, std::size_t size) {
    if (size > table.capacity()) {
        table.reserve(std::max(size, 2 * table.capacity()));
    }
}

} // namespace

void Netlist::reserve(std::size_t nets, std::size_t cells, std::size_t pins) {
    grow(nets_, nets);
    grow(cells_, cells);
    grow(pins_, pins);
}

void Netlist::drive(NetId net, CellId cell) {
    if (nets_[net].driver != kInvalid) {
        throw Error(format("netlist %s: net '%s' has multiple drivers", name_.c_str(),
                           nets_[net].name.c_str()));
    }
    nets_[net].driver = cell;
}

NetId Netlist::addNet(std::string name, unsigned width) {
    checked_.set(false);
    nets_.push_back(Net{std::move(name), width, kInvalid});
    return static_cast<NetId>(nets_.size() - 1);
}

CellId Netlist::addCell(std::string name, CellKind kind, unsigned width,
                        std::span<const NetId> inputs, std::span<const NetId> outputs,
                        std::int64_t param) {
    checked_.set(false);
    const auto id = static_cast<CellId>(cells_.size());
    for (NetId out : outputs) {
        require(out < nets_.size(), "cell output net out of range");
        drive(out, id);
    }
    const auto firstPin = static_cast<std::uint32_t>(pins_.size());
    pins_.insert(pins_.end(), inputs.begin(), inputs.end());
    pins_.insert(pins_.end(), outputs.begin(), outputs.end());
    cells_.push_back(Cell{std::move(name), kind, width, firstPin,
                          static_cast<std::uint32_t>(inputs.size()),
                          static_cast<std::uint32_t>(outputs.size()), param});
    return id;
}

void Netlist::appendInstance(const Netlist& src, std::string_view prefix,
                             std::vector<NetId>& netMap) {
    require(netMap.size() == src.nets_.size(), "instance net map does not match its netlist");
    checked_.set(false);
    reserve(nets_.size() + src.nets_.size(), cells_.size() + src.cells_.size(),
            pins_.size() + src.pins_.size());
    for (NetId id = 0; id < src.nets_.size(); ++id) {
        if (netMap[id] == kInvalid) {
            netMap[id] = static_cast<NetId>(nets_.size());
            nets_.push_back(Net{concat(prefix, src.nets_[id].name), src.nets_[id].width});
        }
    }
    // The pin block is copied whole, translated; each cell keeps its pin
    // layout at an offset.
    const auto pinBase = static_cast<std::uint32_t>(pins_.size());
    for (const NetId pin : src.pins_) {
        pins_.push_back(netMap[pin]);
    }
    for (const Cell& c : src.cells_) {
        Cell cell{concat(prefix, c.name), c.kind, c.width, pinBase + c.firstPin,
                  c.inputCount, c.outputCount, c.param};
        for (const NetId out : outputs(cell)) {
            drive(out, static_cast<CellId>(cells_.size()));
        }
        cells_.push_back(std::move(cell));
    }
}

void Netlist::addPort(std::string name, PortDir dir, unsigned width, NetId net) {
    checked_.set(false);
    require(net < nets_.size(), "port net out of range");
    ports_.push_back(Port{std::move(name), dir, width, net});
}

const Net& Netlist::net(NetId id) const {
    require(id < nets_.size(), "net id out of range");
    return nets_[id];
}

const Cell& Netlist::cell(CellId id) const {
    require(id < cells_.size(), "cell id out of range");
    return cells_[id];
}

const Port& Netlist::port(std::string_view name) const {
    for (const auto& p : ports_) {
        if (p.name == name) {
            return p;
        }
    }
    throw Error(format("netlist %s: no port named '%s'", name_.c_str(),
                       std::string(name).c_str()));
}

bool Netlist::hasPort(std::string_view name) const {
    return std::any_of(ports_.begin(), ports_.end(),
                       [&](const Port& p) { return p.name == name; });
}

std::size_t Netlist::countKind(CellKind kind) const {
    return static_cast<std::size_t>(
        std::count_if(cells_.begin(), cells_.end(),
                      [&](const Cell& c) { return c.kind == kind; }));
}

void Netlist::check() const {
    if (checked_.get()) {
        return;
    }
    // Input-port nets are externally driven.
    std::vector<bool> externallyDriven(nets_.size(), false);
    for (const auto& p : ports_) {
        if (p.net >= nets_.size()) {
            throw Error(format("netlist %s: port '%s' references missing net", name_.c_str(),
                               p.name.c_str()));
        }
        if (p.dir == PortDir::In) {
            externallyDriven[p.net] = true;
        }
    }
    for (std::size_t i = 0; i < nets_.size(); ++i) {
        const auto& n = nets_[i];
        if (n.driver == kInvalid && !externallyDriven[i]) {
            throw Error(
                format("netlist %s: net '%s' is undriven", name_.c_str(), n.name.c_str()));
        }
        if (n.driver != kInvalid && externallyDriven[i]) {
            throw Error(format("netlist %s: input-port net '%s' also driven by cell",
                               name_.c_str(), n.name.c_str()));
        }
        // Nets wider than 64 bits are structurally valid up to 128 (the
        // HDL emitters render any range); both simulation engines track
        // the low 64 bits of such a net and agree on that truncation —
        // the diff-sim wide-bus corpus pins it. Wider than 128 is a
        // generator bug, not a representable design.
        if (n.width == 0 || n.width > 128) {
            throw Error(format("netlist %s: net '%s' has unsupported width %u", name_.c_str(),
                               n.name.c_str(), n.width));
        }
    }
    for (const auto& c : cells_) {
        const PinSpec spec = pinSpec(c.kind);
        if (spec.inputs >= 0 && static_cast<int>(c.inputCount) != spec.inputs) {
            throw Error(format("netlist %s: cell '%s' (%s) expects %d inputs, has %zu",
                               name_.c_str(), c.name.c_str(),
                               std::string(cellKindName(c.kind)).c_str(), spec.inputs,
                               static_cast<std::size_t>(c.inputCount)));
        }
        if (spec.inputs < 0 && c.inputCount == 0) {
            throw Error(format("netlist %s: cell '%s' needs at least one input", name_.c_str(),
                               c.name.c_str()));
        }
        if (static_cast<int>(c.outputCount) != spec.outputs) {
            throw Error(format("netlist %s: cell '%s' expects %d outputs, has %zu",
                               name_.c_str(), c.name.c_str(), spec.outputs,
                               static_cast<std::size_t>(c.outputCount)));
        }
        for (NetId in : inputs(c)) {
            if (in >= nets_.size()) {
                throw Error(format("netlist %s: cell '%s' input references missing net",
                                   name_.c_str(), c.name.c_str()));
            }
        }
    }
    (void)topoOrder();  // throws on combinational cycles
    checked_.set(true);
}

Fanout Netlist::fanout() const {
    // Count each net's readers into first[net + 1], prefix-sum, fill with
    // first[net] as the cursor, then shift the cursors back into offsets.
    Fanout f;
    f.first.assign(nets_.size() + 1, 0);
    for (const Cell& c : cells_) {
        for (NetId in : inputs(c)) {
            ++f.first[in + 1];
        }
    }
    for (std::size_t net = 0; net < nets_.size(); ++net) {
        f.first[net + 1] += f.first[net];
    }
    f.cells.resize(f.first.back());
    for (CellId id = 0; id < cells_.size(); ++id) {
        for (NetId in : inputs(cells_[id])) {
            f.cells[f.first[in]++] = id;
        }
    }
    for (std::size_t net = nets_.size(); net > 0; --net) {
        f.first[net] = f.first[net - 1];
    }
    f.first[0] = 0;
    return f;
}

std::vector<CellId> Netlist::topoOrder() const {
    // Kahn's algorithm restricted to combinational cells; sequential cell
    // outputs are treated as sources (they hold state across the cycle).
    const Fanout fan = fanout();
    std::vector<std::uint32_t> pendingInputs(cells_.size(), 0);
    std::vector<CellId> ready;
    std::size_t combinationalCount = 0;
    for (CellId id = 0; id < cells_.size(); ++id) {
        const Cell& c = cells_[id];
        if (!isCombinational(c.kind)) {
            continue;
        }
        ++combinationalCount;
        for (NetId in : inputs(c)) {
            const CellId driver = nets_[in].driver;
            if (driver != kInvalid && isCombinational(cells_[driver].kind)) {
                ++pendingInputs[id];
            }
        }
        if (pendingInputs[id] == 0) {
            ready.push_back(id);
        }
    }
    std::vector<CellId> order;
    order.reserve(combinationalCount);
    while (!ready.empty()) {
        const CellId id = ready.back();
        ready.pop_back();
        order.push_back(id);
        // Every reader of a combinational cell's output that is itself
        // combinational counted that pin above.
        for (NetId out : outputs(cells_[id])) {
            for (CellId consumer : fan.of(out)) {
                if (isCombinational(cells_[consumer].kind) &&
                    --pendingInputs[consumer] == 0) {
                    ready.push_back(consumer);
                }
            }
        }
    }
    if (order.size() != combinationalCount) {
        throw Error(format("netlist %s: combinational cycle detected", name_.c_str()));
    }
    return order;
}

} // namespace socgen::rtl
