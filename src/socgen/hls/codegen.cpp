#include "socgen/hls/codegen.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>
#include <map>
#include <optional>

namespace socgen::hls {

namespace {

using rtl::CellKind;
using rtl::NetId;

CellKind cellKindFor(BinOp op) {
    switch (op) {
    case BinOp::Add: return CellKind::Add;
    case BinOp::Sub: return CellKind::Sub;
    case BinOp::Mul: return CellKind::Mul;
    case BinOp::Div: return CellKind::Div;
    case BinOp::Mod: return CellKind::Mod;
    case BinOp::And: return CellKind::And;
    case BinOp::Or: return CellKind::Or;
    case BinOp::Xor: return CellKind::Xor;
    case BinOp::Shl: return CellKind::Shl;
    case BinOp::Shr: return CellKind::Shr;
    case BinOp::Eq: return CellKind::Eq;
    case BinOp::Ne: return CellKind::Ne;
    case BinOp::Lt: return CellKind::Lt;
    case BinOp::Le: return CellKind::Le;
    case BinOp::Gt: return CellKind::Gt;
    case BinOp::Ge: return CellKind::Ge;
    case BinOp::Min:
    case BinOp::Max:
        return CellKind::Mux;  // composed from Lt + Mux by the generator
    }
    return CellKind::Add;
}

class RtlGenerator {
public:
    RtlGenerator(const Kernel& kernel, const KernelSchedule& schedule,
                 const KernelBinding& binding)
        : k_(kernel), sched_(schedule), bind_(binding),
          netlist_(sanitizeIdentifier(kernel.name())) {}

    rtl::Netlist run() {
        // App-library cores: 1.7-8.5 nets and cells per scheduled op, ~3 pins a cell.
        std::size_t ops = sched_.top.dfg.size();
        for (const LoopSchedule& loop : sched_.loops) {
            ops += loop.body.dfg.size();
        }
        const std::size_t size = 16 + 3 * ops;
        netlist_.reserve(size, size, 3 * size);

        makePorts();
        makeStateMachineNets();
        makeVarNets();
        makeUnitNets();
        makeArrayNets();

        // Process every scheduled block with a dense control-step offset.
        std::int64_t offset = 1;  // state 0 = idle/waiting for ap_start
        for (std::size_t li = 0; li < sched_.loops.size(); ++li) {
            offset = processBlock(sched_.loops[li].body, bind_.loopBindings[li], offset);
        }
        offset = processBlock(sched_.top, bind_.topBinding, offset);
        totalSteps_ = offset;

        finishUnits();
        finishArrays();
        finishVars();
        finishStreams();
        finishScalarOuts();
        finishControl();
        netlist_.check();
        return std::move(netlist_);
    }

private:
    struct StreamPortNets {
        NetId tdata = rtl::kInvalid;
        NetId tvalid = rtl::kInvalid;
        NetId tready = rtl::kInvalid;
        bool isInput = false;
        unsigned width = 32;
        // For outputs: accumulated (selectNet, valueNet) writes.
        std::vector<std::pair<NetId, NetId>> writes;
        // For inputs: read-select nets (drive tready).
        std::vector<NetId> readSelects;
    };

    struct ArrayNets {
        NetId rdata = rtl::kInvalid;
        unsigned width = 32;
        std::int64_t depth = 0;
        std::vector<std::pair<NetId, NetId>> addr;    ///< (sel, index)
        std::vector<std::pair<NetId, NetId>> wdata;   ///< (sel, value)
        std::vector<NetId> writeSelects;
    };

    struct SharedUnit {
        CellKind kind = CellKind::Mul;
        NetId out = rtl::kInvalid;
        unsigned width = 1;
        std::vector<std::pair<NetId, NetId>> inA;  ///< (sel, operand)
        std::vector<std::pair<NetId, NetId>> inB;
    };

    struct VarNets {
        NetId q = rtl::kInvalid;
        unsigned width = 32;
        std::vector<std::pair<NetId, NetId>> assigns;  ///< (sel, value)
        bool isInduction = false;
    };

    // ---- setup ------------------------------------------------------------

    void makePorts() {
        apStart_ = netlist_.addNet("ap_start", 1);
        netlist_.addPort("ap_start", rtl::PortDir::In, 1, apStart_);
        for (PortId pid = 0; pid < k_.ports().size(); ++pid) {
            const KernelPort& p = k_.port(pid);
            const std::string base = sanitizeIdentifier(p.name);
            switch (p.kind) {
            case PortKind::ScalarIn: {
                const NetId net = netlist_.addNet(base, p.width);
                netlist_.addPort(base, rtl::PortDir::In, p.width, net);
                scalarIn_[pid] = net;
                break;
            }
            case PortKind::ScalarOut: {
                scalarOutWidth_[pid] = p.width;
                break;  // net created when the result register is built
            }
            case PortKind::StreamIn:
            case PortKind::StreamOut: {
                StreamPortNets nets;
                nets.isInput = p.kind == PortKind::StreamIn;
                nets.width = p.width;
                if (nets.isInput) {
                    nets.tdata = netlist_.addNet(base + "_tdata", p.width);
                    netlist_.addPort(base + "_tdata", rtl::PortDir::In, p.width, nets.tdata);
                    nets.tvalid = netlist_.addNet(base + "_tvalid", 1);
                    netlist_.addPort(base + "_tvalid", rtl::PortDir::In, 1, nets.tvalid);
                } else {
                    nets.tready = netlist_.addNet(base + "_tready", 1);
                    netlist_.addPort(base + "_tready", rtl::PortDir::In, 1, nets.tready);
                }
                streams_[pid] = nets;
                break;
            }
            }
        }
    }

    void makeStateMachineNets() {
        state_ = netlist_.addNet("fsm_state", 16);
    }

    void makeVarNets() {
        for (VarId v = 0; v < k_.vars().size(); ++v) {
            VarNets nets;
            nets.width = k_.vars()[v].width;
            nets.q = netlist_.addNet("var_" + sanitizeIdentifier(k_.vars()[v].name),
                                     nets.width);
            vars_[v] = nets;
        }
        // Mark loop induction variables (driven by a counter).
        for (const auto& loop : sched_.loops) {
            for (VarId v = 0; v < k_.vars().size(); ++v) {
                if (k_.vars()[v].name == loop.inductionVar) {
                    vars_[v].isInduction = true;
                }
            }
        }
    }

    void makeUnitNets() {
        for (int u = 0; u < bind_.mulUnits; ++u) {
            SharedUnit unit;
            unit.kind = CellKind::Mul;
            unit.out = netlist_.addNet(concat("mul_unit", u, "_out"), 32);
            mulUnits_.push_back(unit);
        }
        for (int u = 0; u < bind_.divUnits; ++u) {
            SharedUnit unit;
            unit.kind = CellKind::Div;
            unit.out = netlist_.addNet(concat("div_unit", u, "_out"), 32);
            divUnits_.push_back(unit);
        }
    }

    void makeArrayNets() {
        for (ArrayId a = 0; a < k_.arrays().size(); ++a) {
            ArrayNets nets;
            nets.width = k_.arrays()[a].width;
            nets.depth = static_cast<std::int64_t>(k_.arrays()[a].depth);
            nets.rdata = netlist_.addNet(
                "mem_" + sanitizeIdentifier(k_.arrays()[a].name) + "_rdata", nets.width);
            arrays_[a] = nets;
        }
    }

    // ---- helpers ------------------------------------------------------------

    NetId constant(std::int64_t value, unsigned width) {
        const auto key = std::make_pair(value, width);
        const auto it = constCache_.find(key);
        if (it != constCache_.end()) {
            return it->second;
        }
        const NetId net = netlist_.addNet(concat("k", value, "_w", width), width);
        netlist_.addCell(concat("const_", netlist_.cells().size()), CellKind::Const,
                         width, {}, {net}, value);
        constCache_[key] = net;
        return net;
    }

    NetId eqState(std::int64_t step) {
        const auto it = eqCache_.find(step);
        if (it != eqCache_.end()) {
            return it->second;
        }
        const NetId out = netlist_.addNet(concat("st_eq_", step), 1);
        netlist_.addCell(concat("st_eq_c", step), CellKind::Eq,
                         16, {state_, constant(step, 16)}, {out});
        eqCache_[step] = out;
        return out;
    }

    NetId binaryCell(CellKind kind, NetId a, NetId b, unsigned width,
                     std::string_view base) {
        const NetId out = netlist_.addNet(concat(base, "_out", netlist_.nets().size()), width);
        netlist_.addCell(concat(base, "_c", netlist_.cells().size()), kind, width, {a, b},
                         {out});
        return out;
    }

    NetId muxCell(NetId sel, NetId whenZero, NetId whenNonZero, unsigned width) {
        const NetId out = netlist_.addNet(concat("mux_out", netlist_.nets().size()), width);
        netlist_.addCell(concat("mux_c", netlist_.cells().size()), CellKind::Mux, width,
                         {sel, whenZero, whenNonZero}, {out});
        return out;
    }

    NetId regCell(NetId d, NetId en, unsigned width, std::string_view base) {
        const NetId out = netlist_.addNet(concat(base, "_q", netlist_.nets().size()), width);
        const NetId inputs[] = {d, en};
        netlist_.addCell(concat(base, "_r", netlist_.cells().size()), CellKind::Reg, width,
                         std::span<const NetId>(inputs, en != rtl::kInvalid ? 2 : 1),
                         std::span(&out, 1));
        return out;
    }

    /// Folds (sel, value) pairs into a priority mux cascade, defaulting to 0.
    NetId cascade(const std::vector<std::pair<NetId, NetId>>& entries, unsigned width) {
        NetId current = constant(0, width);
        for (const auto& [sel, value] : entries) {
            current = muxCell(sel, current, value, width);
        }
        return current;
    }

    /// Folds select nets into an OR tree (0 if empty).
    NetId orTree(const std::vector<NetId>& nets) {
        if (nets.empty()) {
            return constant(0, 1);
        }
        NetId current = nets.front();
        for (std::size_t i = 1; i < nets.size(); ++i) {
            current = binaryCell(CellKind::Or, current, nets[i], 1, "or");
        }
        return current;
    }

    // ---- per-block processing ----------------------------------------------

    std::int64_t processBlock(const BlockSchedule& block, const BlockBinding& binding,
                              std::int64_t offset) {
        // Dense control steps: unique start cycles in ascending order.
        std::vector<std::int64_t> cycles = block.startCycle;
        std::sort(cycles.begin(), cycles.end());
        cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());
        std::map<std::int64_t, std::int64_t> stepOfCycle;
        for (std::size_t i = 0; i < cycles.size(); ++i) {
            stepOfCycle[cycles[i]] = offset + static_cast<std::int64_t>(i);
        }

        exprNet_.clear();
        std::vector<NetId> valueNet(block.dfg.size(), rtl::kInvalid);

        for (OpId i = 0; i < block.dfg.size(); ++i) {
            const DfgOp& op = block.dfg.ops[i];
            const std::int64_t step = stepOfCycle.at(block.startCycle[i]);
            const NetId sel = op.kind == OpKind::LoopNest ? rtl::kInvalid : eqState(step);
            valueNet[i] = emitOp(block, binding, i, op, sel, valueNet);
            if (op.expr != kNoId) {
                exprNet_[op.expr] = valueNet[i];
            }
            // Value-producing ops whose result defines a variable feed the
            // variable's register (Move records its own entry in emitOp).
            if (op.assignsVar != kNoId && op.kind != OpKind::Move &&
                valueNet[i] != rtl::kInvalid) {
                vars_.at(op.assignsVar).assigns.emplace_back(sel, valueNet[i]);
            }
        }
        return offset + static_cast<std::int64_t>(cycles.size()) + 1;
    }

    NetId netOfExpr(ExprId id) {
        const auto it = exprNet_.find(id);
        if (it != exprNet_.end()) {
            return it->second;
        }
        const Expr& e = k_.expr(id);
        switch (e.kind) {
        case ExprKind::Const:
            return constant(e.value, std::max(1u, widthOfConst(e.value)));
        case ExprKind::Var:
            return vars_.at(e.var).q;
        case ExprKind::Arg:
            return scalarIn_.at(e.port);
        default:
            throw HlsError(format("kernel %s: expression %u has no generated net",
                                  k_.name().c_str(), id));
        }
    }

    static unsigned widthOfConst(std::int64_t value) {
        if (value < 0) {
            return 32;
        }
        unsigned bits = 1;
        while ((value >> bits) != 0 && bits < 63) {
            ++bits;
        }
        return bits;
    }

    NetId emitOp(const BlockSchedule& block, const BlockBinding& binding, OpId i,
                 const DfgOp& op, NetId sel, const std::vector<NetId>& valueNet) {
        (void)block;
        switch (op.kind) {
        case OpKind::Binary: {
            const Expr& e = k_.expr(op.expr);
            const NetId a = netOfExpr(e.a);
            const NetId b = netOfExpr(e.b);
            const FuClass cls = fuClassOf(op);
            if (cls == FuClass::Mul || cls == FuClass::Div) {
                auto& pool = cls == FuClass::Mul ? mulUnits_ : divUnits_;
                require(binding.unitOf[i] >= 0, "shared op without unit");
                SharedUnit& unit = pool[static_cast<std::size_t>(binding.unitOf[i])];
                unit.width = std::max(unit.width, op.width);
                if (cls == FuClass::Div && op.bop == BinOp::Mod) {
                    unit.kind = CellKind::Mod;  // divider exposes remainder too
                }
                unit.inA.emplace_back(sel, a);
                unit.inB.emplace_back(sel, b);
                return regCell(unit.out, sel, op.width, "fu_res");
            }
            if (op.bop == BinOp::Min || op.bop == BinOp::Max) {
                const NetId cmp = binaryCell(
                    op.bop == BinOp::Min ? CellKind::Lt : CellKind::Gt, a, b, op.width,
                    "cmp");
                return muxCell(cmp, b, a, op.width);
            }
            return binaryCell(cellKindFor(op.bop), a, b, op.width, "alu");
        }
        case OpKind::Unary: {
            const Expr& e = k_.expr(op.expr);
            const NetId a = netOfExpr(e.a);
            if (op.uop == UnOp::Neg) {
                return binaryCell(CellKind::Sub, constant(0, op.width), a, op.width, "neg");
            }
            const NetId out = netlist_.addNet(concat("not_out", netlist_.nets().size()),
                                              op.width);
            netlist_.addCell(concat("not_c", netlist_.cells().size()), CellKind::Not,
                             op.width, {a}, {out});
            return out;
        }
        case OpKind::Select: {
            const Expr& e = k_.expr(op.expr);
            return muxCell(netOfExpr(e.a), netOfExpr(e.c), netOfExpr(e.b), op.width);
        }
        case OpKind::Move: {
            const NetId value = netOfExpr(op.valueExpr);
            vars_.at(op.assignsVar).assigns.emplace_back(sel, value);
            return value;
        }
        case OpKind::ArrayLoad: {
            ArrayNets& mem = arrays_.at(op.array);
            mem.addr.emplace_back(sel, netOfExpr(op.indexExpr));
            return regCell(mem.rdata, sel, op.width, "ld_res");
        }
        case OpKind::ArrayStore: {
            ArrayNets& mem = arrays_.at(op.array);
            mem.addr.emplace_back(sel, netOfExpr(op.indexExpr));
            mem.wdata.emplace_back(sel, netOfExpr(op.valueExpr));
            mem.writeSelects.push_back(sel);
            return rtl::kInvalid;
        }
        case OpKind::StreamRead: {
            StreamPortNets& port = streams_.at(op.port);
            port.readSelects.push_back(sel);
            return regCell(port.tdata, sel, op.width, "rd_res");
        }
        case OpKind::StreamWrite: {
            StreamPortNets& port = streams_.at(op.port);
            port.writes.emplace_back(sel, netOfExpr(op.valueExpr));
            return rtl::kInvalid;
        }
        case OpKind::SetResult: {
            scalarOutWrites_[op.port].emplace_back(sel, netOfExpr(op.valueExpr));
            return rtl::kInvalid;
        }
        case OpKind::LoopNest:
            return rtl::kInvalid;
        }
        (void)valueNet;
        throw HlsError("unreachable op kind in codegen");
    }

    // ---- finalisation --------------------------------------------------------

    void finishUnits() {
        int index = 0;
        for (auto* pool : {&mulUnits_, &divUnits_}) {
            for (SharedUnit& unit : *pool) {
                // Update the pre-created output net's width.
                const NetId a = cascade(unit.inA, unit.width);
                const NetId b = cascade(unit.inB, unit.width);
                netlist_.addCell(concat("fu_", index++), unit.kind, unit.width, {a, b},
                                 {unit.out});
            }
        }
    }

    void finishArrays() {
        for (auto& [id, mem] : arrays_) {
            const unsigned addrWidth = 16;
            const NetId addr = cascade(mem.addr, addrWidth);
            const NetId wdata = cascade(mem.wdata, mem.width);
            const NetId we = orTree(mem.writeSelects);
            netlist_.addCell("mem_" + sanitizeIdentifier(k_.arrays()[id].name),
                             CellKind::Bram, mem.width, {addr, wdata, we}, {mem.rdata},
                             mem.depth);
        }
    }

    void finishVars() {
        for (auto& [id, var] : vars_) {
            if (var.isInduction && var.assigns.empty()) {
                // Induction counter: q + 1, always enabled.
                const NetId next =
                    binaryCell(CellKind::Add, var.q, constant(1, var.width), var.width,
                               "ind");
                netlist_.addCell("ind_" + sanitizeIdentifier(k_.vars()[id].name),
                                 CellKind::Reg, var.width, {next}, {var.q});
                continue;
            }
            std::vector<NetId> selects;
            selects.reserve(var.assigns.size());
            for (const auto& [sel, value] : var.assigns) {
                selects.push_back(sel);
            }
            const NetId d = var.assigns.empty() ? var.q : cascade(var.assigns, var.width);
            const NetId en = var.assigns.empty() ? constant(0, 1) : orTree(selects);
            netlist_.addCell("var_" + sanitizeIdentifier(k_.vars()[id].name) + "_reg",
                             CellKind::Reg, var.width, {d, en}, {var.q});
        }
    }

    void finishStreams() {
        for (auto& [id, port] : streams_) {
            const std::string base = sanitizeIdentifier(k_.port(id).name);
            if (port.isInput) {
                const NetId tready = orTree(port.readSelects);
                netlist_.addPort(base + "_tready", rtl::PortDir::Out, 1, tready);
            } else {
                const NetId tdata = cascade(port.writes, port.width);
                std::vector<NetId> selects;
                for (const auto& [sel, value] : port.writes) {
                    selects.push_back(sel);
                }
                const NetId tvalid = orTree(selects);
                netlist_.addPort(base + "_tdata", rtl::PortDir::Out, port.width, tdata);
                netlist_.addPort(base + "_tvalid", rtl::PortDir::Out, 1, tvalid);
            }
        }
    }

    void finishScalarOuts() {
        for (const auto& [pid, width] : scalarOutWidth_) {
            const auto it = scalarOutWrites_.find(pid);
            const std::string base = sanitizeIdentifier(k_.port(pid).name);
            std::vector<std::pair<NetId, NetId>> writes =
                it != scalarOutWrites_.end() ? it->second
                                             : std::vector<std::pair<NetId, NetId>>{};
            std::vector<NetId> selects;
            for (const auto& [sel, value] : writes) {
                selects.push_back(sel);
            }
            const NetId d = cascade(writes, width);
            const NetId en = orTree(selects);
            const NetId q = regCell(d, en, width, base);
            netlist_.addPort(base, rtl::PortDir::Out, width, q);
        }
    }

    void finishControl() {
        // FSM status inputs: ap_start plus every stream handshake input.
        std::vector<NetId> status{apStart_};
        for (const auto& [id, port] : streams_) {
            if (port.isInput) {
                status.push_back(port.tvalid);
            } else {
                status.push_back(port.tready);
            }
        }
        netlist_.addCell("ctrl_fsm", CellKind::Fsm, 16, status, std::span(&state_, 1),
                         std::max<std::int64_t>(totalSteps_ + 1, 2));
        const NetId done = eqState(totalSteps_);
        netlist_.addPort("ap_done", rtl::PortDir::Out, 1, done);
    }

    const Kernel& k_;
    const KernelSchedule& sched_;
    const KernelBinding& bind_;
    rtl::Netlist netlist_;

    NetId apStart_ = rtl::kInvalid;
    NetId state_ = rtl::kInvalid;
    std::int64_t totalSteps_ = 0;

    std::map<PortId, NetId> scalarIn_;
    std::map<PortId, unsigned> scalarOutWidth_;
    std::map<PortId, std::vector<std::pair<NetId, NetId>>> scalarOutWrites_;
    std::map<PortId, StreamPortNets> streams_;
    std::map<ArrayId, ArrayNets> arrays_;
    std::map<VarId, VarNets> vars_;
    std::vector<SharedUnit> mulUnits_;
    std::vector<SharedUnit> divUnits_;
    std::map<std::pair<std::int64_t, unsigned>, NetId> constCache_;
    std::map<std::int64_t, NetId> eqCache_;
    std::map<ExprId, NetId> exprNet_;
};

} // namespace

rtl::Netlist generateRtl(const Kernel& kernel, const KernelSchedule& schedule,
                         const KernelBinding& binding) {
    return RtlGenerator(kernel, schedule, binding).run();
}

} // namespace socgen::hls
