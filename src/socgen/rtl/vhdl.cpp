#include "socgen/rtl/vhdl.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/rtl/hdl_writer.hpp"

namespace socgen::rtl {

namespace {

/// `std_logic` for one bit, else `std_logic_vector(<width-1> downto 0)`.
struct TypeOf {
    unsigned width;
};

HdlWriter& operator<<(HdlWriter& out, TypeOf type) {
    if (type.width == 1) {
        return out << "std_logic";
    }
    return out << "std_logic_vector(" << (type.width - 1) << " downto 0)";
}

/// A net read as numeric_std unsigned; a 1-bit std_logic is first made a
/// one-element vector.
struct AsUnsigned {
    std::string_view signal;
    unsigned width;  ///< the net's width
};

HdlWriter& operator<<(HdlWriter& out, AsUnsigned value) {
    if (value.width == 1) {
        return out << "unsigned'(\"\" & " << value.signal << ')';
    }
    return out << "unsigned(" << value.signal << ')';
}

/// An operand resized to the cell's width.
struct Resized {
    AsUnsigned value;
    unsigned width;
};

HdlWriter& operator<<(HdlWriter& out, Resized r) {
    return out << "resize(" << r.value << ", " << r.width << ')';
}

/// The two halves around an unsigned expression that convert it back to
/// the output's type: `std_logic_vector(...)`, or `(...)(0)` for one bit.
struct FromUnsignedOpen {
    unsigned width;
};
struct FromUnsignedClose {
    unsigned width;
};

HdlWriter& operator<<(HdlWriter& out, FromUnsignedOpen open) {
    return open.width == 1 ? out : out << "std_logic_vector(";
}

HdlWriter& operator<<(HdlWriter& out, FromUnsignedClose close) {
    return out << (close.width == 1 ? "(0)" : ")");
}

const char* binaryOperator(CellKind kind) {
    switch (kind) {
    case CellKind::And: return "and";
    case CellKind::Or: return "or";
    case CellKind::Xor: return "xor";
    case CellKind::Add: return "+";
    case CellKind::Sub: return "-";
    case CellKind::Mul: return "*";
    case CellKind::Div: return "/";
    case CellKind::Mod: return "mod";
    default: return nullptr;
    }
}

const char* compareOperator(CellKind kind) {
    switch (kind) {
    case CellKind::Eq: return "=";
    case CellKind::Ne: return "/=";
    case CellKind::Lt: return "<";
    case CellKind::Le: return "<=";
    case CellKind::Gt: return ">";
    case CellKind::Ge: return ">=";
    default: return nullptr;
    }
}

} // namespace

std::string VhdlEmitter::emit(const Netlist& n) const {
    n.check();
    const NetNames sig(n, 's');
    // 5-30% over the text of the app library's cores.
    HdlWriter out(96 * (n.nets().size() + n.cells().size() + n.ports().size()) +
                  3 * sig.bytes());
    const Identifier entity{n.name()};

    out << "-- Generated by socgen (HLS output stage)\n";
    out << "library ieee;\n";
    out << "use ieee.std_logic_1164.all;\n";
    out << "use ieee.numeric_std.all;\n\n";

    out << "entity " << entity << " is\n  port (\n";
    out << "    clk : in std_logic;\n";
    out << "    rst : in std_logic";
    for (const auto& p : n.ports()) {
        out << ";\n    " << Identifier{p.name} << " : "
            << (p.dir == PortDir::In ? "in" : "out") << ' ' << TypeOf{p.width};
    }
    out << "\n  );\nend entity " << entity << ";\n\n";

    out << "architecture rtl of " << entity << " is\n";
    // Every net becomes an internal signal; ports are bridged to their
    // net's signal below, which keeps emission uniform and collision-free.
    for (NetId id = 0; id < n.nets().size(); ++id) {
        out << "  signal " << sig[id] << " : " << TypeOf{n.nets()[id].width} << ";\n";
    }
    // BRAM array types.
    for (const auto& c : n.cells()) {
        if (c.kind == CellKind::Bram) {
            const Identifier cell{c.name};
            out << "  type " << cell << "_t is array (0 to " << (c.param - 1) << ") of "
                << TypeOf{c.width} << ";\n";
            out << "  signal " << cell << "_mem : " << cell << "_t;\n";
        }
    }
    out << "begin\n";

    // Bridge ports to their internal net signals.
    for (const auto& p : n.ports()) {
        if (p.dir == PortDir::In) {
            out << "  " << sig[p.net] << " <= " << Identifier{p.name} << ";\n";
        } else {
            out << "  " << Identifier{p.name} << " <= " << sig[p.net] << ";\n";
        }
    }

    for (const auto& c : n.cells()) {
        const Identifier cell{c.name};
        const std::span<const NetId> pins = n.inputs(c);
        const std::string_view y = sig[n.outputs(c)[0]];
        const unsigned w = c.width;
        const FromUnsignedOpen open{w};
        const FromUnsignedClose close{w};
        const auto in = [&](std::size_t i) {
            return AsUnsigned{sig[pins[i]], n.nets()[pins[i]].width};
        };
        const auto resizedIn = [&](std::size_t i) { return Resized{in(i), w}; };
        switch (c.kind) {
        case CellKind::Const:
            out << "  " << y << " <= " << open << "to_unsigned(" << c.param << ", " << w
                << ')' << close << ";\n";
            break;
        case CellKind::Not:
            out << "  " << y << " <= " << open << "not " << resizedIn(0) << close << ";\n";
            break;
        case CellKind::Shl:
        case CellKind::Shr:
            out << "  " << y << " <= " << open
                << (c.kind == CellKind::Shl ? "shift_left" : "shift_right") << '('
                << resizedIn(0) << ", to_integer(" << in(1) << "))" << close << ";\n";
            break;
        case CellKind::Mux:
            out << "  " << y << " <= " << open << resizedIn(1) << close << " when " << in(0)
                << " = 0 else " << open << resizedIn(2) << close << ";\n";
            break;
        case CellKind::Reg:
            out << "  " << cell << "_p : process (clk)\n  begin\n"
                << "    if rising_edge(clk) then\n"
                << "      if rst = '1' then\n"
                << "        " << y << " <= " << open << "to_unsigned(0, " << w << ')'
                << close << ";\n";
            if (pins.size() > 1) {
                out << "      elsif " << in(1) << " /= 0 then\n";
            } else {
                out << "      else\n";
            }
            out << "        " << y << " <= " << open << resizedIn(0) << close << ";\n"
                << "      end if;\n    end if;\n  end process;\n";
            break;
        case CellKind::Bram:
            out << "  " << cell << "_p : process (clk)\n  begin\n"
                << "    if rising_edge(clk) then\n"
                << "      if " << in(2) << " /= 0 then\n"
                << "        " << cell << "_mem(to_integer(" << in(0) << ")) <= " << open
                << resizedIn(1) << close << ";\n"
                << "      end if;\n"
                << "      " << y << " <= " << cell << "_mem(to_integer(" << in(0) << "));\n"
                << "    end if;\n  end process;\n";
            break;
        case CellKind::Fsm:
            // Control FSM placeholder: a saturating state counter that
            // advances on every cycle out of reset, whatever its status
            // inputs; the netlist simulator advances it only on a non-zero
            // status input (ROADMAP item 13).
            out << "  " << cell << "_p : process (clk)\n  begin\n"
                << "    if rising_edge(clk) then\n"
                << "      if rst = '1' then\n"
                << "        " << y << " <= (others => '0');\n"
                << "      elsif unsigned(" << y << ") < " << (c.param - 1) << " then\n"
                << "        " << y << " <= std_logic_vector(unsigned(" << y << ") + 1);\n"
                << "      end if;\n    end if;\n  end process;\n";
            break;
        default:
            if (const char* op = binaryOperator(c.kind)) {
                out << "  " << y << " <= " << open;
                if (c.kind == CellKind::Mul) {
                    // VHDL '*' yields a 2w product; truncate back.
                    out << "resize(" << resizedIn(0) << " * " << resizedIn(1) << ", " << w
                        << ')';
                } else {
                    out << resizedIn(0) << ' ' << op << ' ' << resizedIn(1);
                }
                out << close << ";\n";
            } else if (const char* cmp = compareOperator(c.kind)) {
                out << "  " << y << " <= '1' when " << in(0) << ' ' << cmp << ' ' << in(1)
                    << " else '0';\n";
            } else {
                throw Error(format("vhdl: unsupported cell kind %s",
                                   std::string(cellKindName(c.kind)).c_str()));
            }
            break;
        }
    }

    out << "end architecture rtl;\n";
    return out.take();
}

} // namespace socgen::rtl
