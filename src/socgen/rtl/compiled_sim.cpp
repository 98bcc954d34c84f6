#include "socgen/rtl/compiled_sim.hpp"

#include "socgen/common/strings.hpp"

#include <algorithm>

namespace socgen::rtl {

CompiledSim::CompiledSim(const Netlist& netlist)
    : netlist_(netlist), prog_(compileProgram(netlist)) {
    vals_.assign(prog_.netCount, 0);
    state_.assign(prog_.seqOps.size(), 0);
    mems_.reserve(prog_.memDepths.size());
    for (const std::size_t depth : prog_.memDepths) {
        mems_.emplace_back(depth, 0);
    }
    pending_.assign(prog_.ops.size(), 0);
    worklist_.assign(prog_.levels.size(), {});
    seqDirtyFlag_.assign(prog_.seqOps.size(), 0);
    markAllOpsDirty();
}

void CompiledSim::markAllOpsDirty() {
    for (std::uint32_t idx = 0; idx < prog_.ops.size(); ++idx) {
        pending_[idx] = 1;
        worklist_[prog_.opLevel[idx]].push_back(idx);
    }
}

void CompiledSim::markConsumers(std::uint32_t net) {
    const std::uint32_t first = prog_.consumerFirst[net];
    const std::uint32_t last = prog_.consumerFirst[net + 1];
    for (std::uint32_t i = first; i < last; ++i) {
        const std::uint32_t op = prog_.consumers[i];
        if (pending_[op] == 0) {
            pending_[op] = 1;
            worklist_[prog_.opLevel[op]].push_back(op);
        }
    }
}

std::uint64_t CompiledSim::evalOp(const CompiledOp& op) const {
    const std::uint64_t a = vals_[op.a];
    const std::uint64_t b = vals_[op.b];
    switch (op.code) {
    case CellKind::Const: return op.imm;
    case CellKind::Not: return ~a & op.mask;
    case CellKind::And: return (a & b) & op.mask;
    case CellKind::Or: return (a | b) & op.mask;
    case CellKind::Xor: return (a ^ b) & op.mask;
    case CellKind::Add: return (a + b) & op.mask;
    case CellKind::Sub: return (a - b) & op.mask;
    case CellKind::Mul: return (a * b) & op.mask;
    case CellKind::Div: return (b == 0 ? ~0ULL : a / b) & op.mask;
    case CellKind::Mod: return (b == 0 ? a : a % b) & op.mask;
    case CellKind::Shl: return (b >= 64 ? 0 : a << b) & op.mask;
    case CellKind::Shr: return (b >= 64 ? 0 : a >> b) & op.mask;
    case CellKind::Eq: return (a == b ? 1ULL : 0ULL) & op.mask;
    case CellKind::Ne: return (a != b ? 1ULL : 0ULL) & op.mask;
    case CellKind::Lt: return (a < b ? 1ULL : 0ULL) & op.mask;
    case CellKind::Le: return (a <= b ? 1ULL : 0ULL) & op.mask;
    case CellKind::Gt: return (a > b ? 1ULL : 0ULL) & op.mask;
    case CellKind::Ge: return (a >= b ? 1ULL : 0ULL) & op.mask;
    case CellKind::Mux: return (a == 0 ? b : vals_[op.c]) & op.mask;
    default:
        throw SimulationError("compiled-sim: evalOp on sequential op");
    }
}

void CompiledSim::publishSeqOutputs() {
    if (seqDirty_.empty()) {
        return;
    }
    for (const std::uint32_t idx : seqDirty_) {
        seqDirtyFlag_[idx] = 0;
        const CompiledSeqOp& op = prog_.seqOps[idx];
        const std::uint64_t v = state_[idx] & op.mask;
        if (vals_[op.out] != v) {
            vals_[op.out] = v;
            markConsumers(op.out);
        }
    }
    seqDirty_.clear();
}

void CompiledSim::evaluate() {
    // Sequential outputs publish first (they are sources of the comb
    // graph), then one sweep over the level worklists. Ops enqueued
    // while settling always land on a strictly higher level, so a single
    // forward pass reaches a fixed point.
    publishSeqOutputs();
    for (std::size_t level = 0; level < worklist_.size(); ++level) {
        auto& bucket = worklist_[level];
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            const std::uint32_t idx = bucket[i];
            pending_[idx] = 0;
            const CompiledOp& op = prog_.ops[idx];
            const std::uint64_t v = evalOp(op);
            ++opsEvaluated_;
            if (vals_[op.dst] != v) {
                vals_[op.dst] = v;
                markConsumers(op.dst);
            }
        }
        bucket.clear();
    }
}

void CompiledSim::step() {
    evaluate();
    for (std::uint32_t idx = 0; idx < prog_.seqOps.size(); ++idx) {
        const CompiledSeqOp& op = prog_.seqOps[idx];
        std::uint64_t next = state_[idx];
        switch (op.kind) {
        case CompiledSeqKind::RegAlways:
            next = vals_[op.d] & op.mask;
            break;
        case CompiledSeqKind::RegEnable:
            if (vals_[op.en] != 0) {
                next = vals_[op.d] & op.mask;
            }
            break;
        case CompiledSeqKind::Bram: {
            const auto addr = static_cast<std::size_t>(vals_[op.d]);
            auto& mem = mems_[op.mem];
            if (addr >= mem.size()) {
                throw SimulationError(format("bram '%s' address %zu out of range %zu",
                                             netlist_.cell(op.cell).name.c_str(), addr,
                                             mem.size()));
            }
            if (vals_[op.we] != 0) {
                mem[addr] = vals_[op.en] & op.mask;
            }
            next = mem[addr];  // synchronous read (read-after-write)
            break;
        }
        case CompiledSeqKind::Fsm: {
            bool anyStatus = op.statusCount == 0;
            for (std::uint32_t s = 0; s < op.statusCount && !anyStatus; ++s) {
                anyStatus = vals_[prog_.fsmStatus[op.statusFirst + s]] != 0;
            }
            if (anyStatus && state_[idx] + 1 < static_cast<std::uint64_t>(op.param)) {
                next = state_[idx] + 1;
            }
            break;
        }
        }
        if (next != state_[idx]) {
            state_[idx] = next;
            if (seqDirtyFlag_[idx] == 0) {
                seqDirtyFlag_[idx] = 1;
                seqDirty_.push_back(idx);
            }
        }
    }
    ++cycles_;
}

void CompiledSim::setInput(std::string_view port, std::uint64_t value) {
    const auto it = prog_.portsByName.find(port);
    const Port& p = it != prog_.portsByName.end() ? *it->second : netlist_.port(port);
    if (p.dir != PortDir::In) {
        throw SimulationError(format("cannot drive output port '%s'",
                                     std::string(port).c_str()));
    }
    const std::uint64_t v = value & compiledMaskForWidth(p.width);
    if (vals_[p.net] != v) {
        vals_[p.net] = v;
        markConsumers(p.net);
    }
}

std::uint64_t CompiledSim::output(std::string_view port) const {
    const auto it = prog_.portsByName.find(port);
    const Port& p = it != prog_.portsByName.end() ? *it->second : netlist_.port(port);
    return vals_[p.net];
}

std::uint64_t CompiledSim::netValue(NetId id) const {
    require(id < vals_.size(), "net id out of range");
    return vals_[id];
}

std::vector<std::uint64_t> CompiledSim::memoryContents(CellId id) const {
    require(id < netlist_.cells().size(), "cell id out of range");
    for (const CompiledSeqOp& op : prog_.seqOps) {
        if (op.cell == id && op.kind == CompiledSeqKind::Bram) {
            return mems_[op.mem];
        }
    }
    return {};
}

void CompiledSim::reset() {
    std::fill(state_.begin(), state_.end(), 0);
    for (auto& mem : mems_) {
        std::fill(mem.begin(), mem.end(), 0);
    }
    cycles_ = 0;
    // Publish the zeroed state at the next evaluate(), mirroring the
    // event-driven engine (reset leaves net values stale until then).
    for (std::uint32_t idx = 0; idx < prog_.seqOps.size(); ++idx) {
        if (seqDirtyFlag_[idx] == 0) {
            seqDirtyFlag_[idx] = 1;
            seqDirty_.push_back(idx);
        }
    }
}

} // namespace socgen::rtl
