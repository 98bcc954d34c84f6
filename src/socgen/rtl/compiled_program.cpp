#include "socgen/rtl/compiled_program.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>

namespace socgen::rtl {

CompiledProgram compileProgram(const Netlist& netlist) {
    CompiledProgram program;
    program.netCount = netlist.nets().size();

    // Levelize: longest combinational path from a source (input port,
    // constant, or sequential output) to each combinational cell.
    const std::vector<CellId> topo = netlist.topoOrder();
    std::vector<std::uint32_t> cellLevel(netlist.cells().size(), 0);
    std::uint32_t maxLevel = 0;
    for (CellId id : topo) {
        const Cell& c = netlist.cell(id);
        std::uint32_t level = 0;
        for (NetId in : c.inputs) {
            const CellId driver = netlist.net(in).driver;
            if (driver != kInvalid && isCombinational(netlist.cell(driver).kind)) {
                level = std::max(level, cellLevel[driver] + 1);
            }
        }
        cellLevel[id] = level;
        maxLevel = std::max(maxLevel, level);
    }

    // Flatten combinational cells into ops sorted by (level, topo pos):
    // a stable sort of a valid topological order by level is still a
    // valid evaluation order, and groups each level contiguously.
    std::vector<CellId> byLevel = topo;
    std::stable_sort(byLevel.begin(), byLevel.end(), [&](CellId x, CellId y) {
        return cellLevel[x] < cellLevel[y];
    });
    program.ops.reserve(byLevel.size());
    program.opLevel.reserve(byLevel.size());
    std::vector<std::uint32_t> opOfCell(netlist.cells().size(), kInvalid);
    for (CellId id : byLevel) {
        const Cell& c = netlist.cell(id);
        CompiledOp op;
        op.code = c.kind;
        op.dst = c.outputs[0];
        op.mask = compiledMaskForWidth(c.width);
        if (!c.inputs.empty()) {
            op.a = c.inputs[0];
        }
        if (c.inputs.size() > 1) {
            op.b = c.inputs[1];
        }
        if (c.inputs.size() > 2) {
            op.c = c.inputs[2];
        }
        if (c.kind == CellKind::Const) {
            op.imm = static_cast<std::uint64_t>(c.param) & op.mask;
        }
        opOfCell[id] = static_cast<std::uint32_t>(program.ops.size());
        program.ops.push_back(op);
        program.opLevel.push_back(cellLevel[id]);
    }
    program.levels.assign(maxLevel + 1, {0, 0});
    for (std::uint32_t idx = 0; idx < program.ops.size(); ++idx) {
        auto& [first, count] = program.levels[program.opLevel[idx]];
        if (count == 0) {
            first = idx;
        }
        ++count;
    }

    // Consumer CSR: for each net, the combinational ops reading it.
    std::vector<std::uint32_t> counts(netlist.nets().size(), 0);
    for (CellId id : byLevel) {
        for (NetId in : netlist.cell(id).inputs) {
            ++counts[in];
        }
    }
    program.consumerFirst.assign(netlist.nets().size() + 1, 0);
    for (std::size_t net = 0; net < counts.size(); ++net) {
        program.consumerFirst[net + 1] = program.consumerFirst[net] + counts[net];
    }
    program.consumers.assign(program.consumerFirst.back(), 0);
    std::vector<std::uint32_t> cursor(program.consumerFirst.begin(),
                                      program.consumerFirst.end() - 1);
    for (CellId id : byLevel) {
        for (NetId in : netlist.cell(id).inputs) {
            program.consumers[cursor[in]++] = opOfCell[id];
        }
    }

    // Sequential update program, in CellId order (matching the
    // event-driven engine's clock-edge sweep).
    for (CellId id = 0; id < netlist.cells().size(); ++id) {
        const Cell& c = netlist.cell(id);
        if (isCombinational(c.kind)) {
            continue;
        }
        CompiledSeqOp op;
        op.cell = id;
        op.out = c.outputs[0];
        op.mask = compiledMaskForWidth(c.width);
        op.param = c.param;
        switch (c.kind) {
        case CellKind::Reg:
            op.kind = c.inputs.size() < 2 ? CompiledSeqKind::RegAlways
                                          : CompiledSeqKind::RegEnable;
            op.d = c.inputs[0];
            if (c.inputs.size() > 1) {
                op.en = c.inputs[1];
            }
            break;
        case CellKind::Bram:
            op.kind = CompiledSeqKind::Bram;
            op.d = c.inputs[0];   // addr
            op.en = c.inputs[1];  // wdata
            op.we = c.inputs[2];
            op.mem = static_cast<std::uint32_t>(program.memDepths.size());
            program.memDepths.push_back(static_cast<std::size_t>(c.param));
            break;
        case CellKind::Fsm:
            op.kind = CompiledSeqKind::Fsm;
            op.statusFirst = static_cast<std::uint32_t>(program.fsmStatus.size());
            op.statusCount = static_cast<std::uint32_t>(c.inputs.size());
            for (NetId in : c.inputs) {
                program.fsmStatus.push_back(in);
            }
            break;
        default:
            // Reachable only when a new sequential CellKind lands without
            // a lowering here: an internal error, not a fallback case.
            throw SimulationError(
                format("compiled-sim: netlist %s: sequential cell kind %s has no "
                       "compiled lowering",
                       netlist.name().c_str(), std::string(cellKindName(c.kind)).c_str()));
        }
        program.seqOps.push_back(op);
    }

    for (const auto& port : netlist.ports()) {
        program.portsByName.emplace(port.name, &port);
    }
    return program;
}

} // namespace socgen::rtl
