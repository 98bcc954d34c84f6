#include "socgen/rtl/verilog.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/rtl/hdl_writer.hpp"

namespace socgen::rtl {

namespace {

/// A vector range, `[<width-1>:0] `; a 1-bit signal has none.
struct Range {
    unsigned width;
};

HdlWriter& operator<<(HdlWriter& out, Range range) {
    return range.width == 1 ? out : out << '[' << (range.width - 1) << ":0] ";
}

const char* binaryOperator(CellKind kind) {
    switch (kind) {
    case CellKind::And: return "&";
    case CellKind::Or: return "|";
    case CellKind::Xor: return "^";
    case CellKind::Add: return "+";
    case CellKind::Sub: return "-";
    case CellKind::Mul: return "*";
    case CellKind::Div: return "/";
    case CellKind::Mod: return "%";
    case CellKind::Shl: return "<<";
    case CellKind::Shr: return ">>";
    case CellKind::Eq: return "==";
    case CellKind::Ne: return "!=";
    case CellKind::Lt: return "<";
    case CellKind::Le: return "<=";
    case CellKind::Gt: return ">";
    case CellKind::Ge: return ">=";
    default: return nullptr;
    }
}

} // namespace

std::string VerilogEmitter::emit(const Netlist& n) const {
    n.check();
    const NetNames wire(n, 'w');
    // 5-30% over the text of the app library's cores.
    HdlWriter out(48 * (n.nets().size() + n.cells().size() + n.ports().size()) +
                  2 * wire.bytes());
    const Identifier module{n.name()};

    out << "// Generated by socgen (HLS output stage)\n";
    out << "module " << module << " (\n  input wire clk,\n  input wire rst";
    for (const auto& p : n.ports()) {
        out << ",\n  " << (p.dir == PortDir::In ? "input" : "output") << " wire "
            << Range{p.width} << Identifier{p.name};
    }
    out << "\n);\n\n";

    // Net declarations: sequential outputs are regs, the rest wires.
    std::vector<bool> isSequential(n.nets().size(), false);
    for (const auto& c : n.cells()) {
        if (!isCombinational(c.kind)) {
            isSequential[n.outputs(c)[0]] = true;
        }
    }
    for (NetId id = 0; id < n.nets().size(); ++id) {
        out << "  " << (isSequential[id] ? "reg " : "wire ") << Range{n.nets()[id].width}
            << wire[id] << ";\n";
    }
    for (const auto& c : n.cells()) {
        if (c.kind == CellKind::Bram) {
            out << "  reg " << Range{c.width} << Identifier{c.name} << "_mem [0:"
                << (c.param - 1) << "];\n";
        }
    }
    out << '\n';

    // Port bridging.
    for (const auto& p : n.ports()) {
        if (p.dir == PortDir::In) {
            out << "  assign " << wire[p.net] << " = " << Identifier{p.name} << ";\n";
        } else {
            out << "  assign " << Identifier{p.name} << " = " << wire[p.net] << ";\n";
        }
    }
    out << '\n';

    for (const auto& c : n.cells()) {
        const std::span<const NetId> pins = n.inputs(c);
        const std::string_view y = wire[n.outputs(c)[0]];
        const auto in = [&](std::size_t i) { return wire[pins[i]]; };
        switch (c.kind) {
        case CellKind::Const:
            out << "  assign " << y << " = " << c.width << "'d"
                << static_cast<std::uint64_t>(c.param) << ";\n";
            break;
        case CellKind::Not:
            out << "  assign " << y << " = ~" << in(0) << ";\n";
            break;
        case CellKind::Mux:
            out << "  assign " << y << " = (" << in(0) << " != 0) ? " << in(2) << " : "
                << in(1) << ";\n";
            break;
        case CellKind::Reg:
            out << "  always @(posedge clk) begin\n"
                << "    if (rst) " << y << " <= 0;\n";
            if (pins.size() > 1) {
                out << "    else if (" << in(1) << " != 0) " << y << " <= " << in(0)
                    << ";\n";
            } else {
                out << "    else " << y << " <= " << in(0) << ";\n";
            }
            out << "  end\n";
            break;
        case CellKind::Bram:
            out << "  always @(posedge clk) begin\n"
                << "    if (" << in(2) << " != 0) " << Identifier{c.name} << "_mem["
                << in(0) << "] <= " << in(1) << ";\n"
                << "    " << y << " <= " << Identifier{c.name} << "_mem[" << in(0)
                << "];\n"
                << "  end\n";
            break;
        case CellKind::Fsm:
            out << "  always @(posedge clk) begin\n"
                << "    if (rst) " << y << " <= 0;\n"
                << "    else if (" << y << " < " << (c.param - 1) << ") " << y << " <= "
                << y << " + 1;\n"
                << "  end\n";
            break;
        default: {
            const char* op = binaryOperator(c.kind);
            if (op == nullptr) {
                throw Error(format("verilog: unsupported cell kind %s",
                                   std::string(cellKindName(c.kind)).c_str()));
            }
            out << "  assign " << y << " = " << in(0) << ' ' << op << ' ' << in(1)
                << ";\n";
            break;
        }
        }
    }
    out << "\nendmodule\n";
    return out.take();
}

} // namespace socgen::rtl
