#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace socgen::rtl {

/// Index types into a Netlist's internal tables. A value of `kInvalid`
/// means "not connected".
using NetId = std::uint32_t;
using CellId = std::uint32_t;
inline constexpr std::uint32_t kInvalid = 0xffffffffU;

enum class PortDir { In, Out };

/// Primitive cell kinds. These are the leaves the HLS code generator maps
/// scheduled operations onto; the synthesis model prices each kind in
/// LUT/FF/BRAM/DSP (see hls/resources.hpp).
enum class CellKind {
    Const,  ///< constant driver; `param` holds the value
    Not,
    And,
    Or,
    Xor,
    Add,
    Sub,
    Mul,    ///< maps to DSP48 slices
    Div,    ///< iterative divider (LUT-heavy)
    Mod,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Mux,    ///< inputs: sel, a (sel==0), b (sel!=0)
    Reg,    ///< inputs: d, en (optional); clocked
    Bram,   ///< inputs: addr, wdata, we; output: rdata; `param` = depth
    Fsm,    ///< control FSM placeholder; `param` = number of states
};

[[nodiscard]] std::string_view cellKindName(CellKind kind);

/// True for cells whose output depends only on current-cycle inputs.
[[nodiscard]] bool isCombinational(CellKind kind);

struct Net {
    std::string name;
    unsigned width = 1;
    CellId driver = kInvalid;       ///< driving cell (kInvalid for input ports)
};

/// A cell's pins live in its Netlist's pin pool: `inputCount` input nets
/// from `firstPin`, then `outputCount` output nets. Read them through
/// Netlist::inputs()/outputs().
struct Cell {
    std::string name;
    CellKind kind = CellKind::Const;
    unsigned width = 1;             ///< datapath width of the operation
    std::uint32_t firstPin = 0;
    std::uint32_t inputCount = 0;
    std::uint32_t outputCount = 0;
    std::int64_t param = 0;         ///< Const value / Bram depth / Fsm states
};

struct Port {
    std::string name;
    PortDir dir = PortDir::In;
    unsigned width = 1;
    NetId net = kInvalid;
};

/// For each net, the cells reading it: one entry per input pin, in
/// CellId order, as offsets into one flat index vector.
struct Fanout {
    std::vector<std::uint32_t> first;  ///< per net, then one past the last
    std::vector<CellId> cells;

    [[nodiscard]] std::span<const CellId> of(NetId net) const {
        return {cells.data() + first[net], first[net + 1] - first[net]};
    }
};

/// A flat structural netlist for one generated hardware module. The HLS
/// code generator produces one Netlist per accelerator; the VHDL emitter
/// and netlist simulator consume it. Nets, cells, ports and every cell's
/// pins sit in four flat vectors, so a copy is four vector copies plus
/// the name strings.
class Netlist {
public:
    explicit Netlist(std::string name) : name_(std::move(name)) {}

    [[nodiscard]] const std::string& name() const { return name_; }

    /// Capacity hint for a netlist about to grow to these sizes. Tables
    /// grow at least geometrically, so repeated hints stay amortized.
    void reserve(std::size_t nets, std::size_t cells, std::size_t pins);

    NetId addNet(std::string name, unsigned width);
    CellId addCell(std::string name, CellKind kind, unsigned width,
                   std::span<const NetId> inputs, std::span<const NetId> outputs,
                   std::int64_t param = 0);
    CellId addCell(std::string name, CellKind kind, unsigned width,
                   std::initializer_list<NetId> inputs, std::initializer_list<NetId> outputs,
                   std::int64_t param = 0) {
        return addCell(std::move(name), kind, width, std::span(inputs.begin(), inputs.size()),
                       std::span(outputs.begin(), outputs.size()), param);
    }
    void addPort(std::string name, PortDir dir, unsigned width, NetId net);

    /// Appends every net and cell of `src`, names prefixed with `prefix`.
    /// `netMap` has one entry per `src` net: a kInvalid entry gets a fresh
    /// net, which is written back; any other entry is the existing net the
    /// `src` net resolves to. Drivers are re-derived as addCell does, and a
    /// net gaining a second driver throws the same error.
    void appendInstance(const Netlist& src, std::string_view prefix,
                        std::vector<NetId>& netMap);

    [[nodiscard]] const std::vector<Net>& nets() const { return nets_; }
    [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
    [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }
    /// The pin pool: every cell's inputs then outputs, cell after cell.
    [[nodiscard]] const std::vector<NetId>& pins() const { return pins_; }

    [[nodiscard]] const Net& net(NetId id) const;
    [[nodiscard]] const Cell& cell(CellId id) const;

    /// Pins of a cell of this netlist.
    [[nodiscard]] std::span<const NetId> inputs(const Cell& c) const {
        return {pins_.data() + c.firstPin, c.inputCount};
    }
    [[nodiscard]] std::span<const NetId> outputs(const Cell& c) const {
        return {pins_.data() + c.firstPin + c.inputCount, c.outputCount};
    }

    /// Finds a port by name; throws socgen::Error if absent.
    [[nodiscard]] const Port& port(std::string_view name) const;
    [[nodiscard]] bool hasPort(std::string_view name) const;

    /// Number of cells of a given kind.
    [[nodiscard]] std::size_t countKind(CellKind kind) const;

    /// Structural sanity: every net (except input-port nets) has exactly
    /// one driver, cell pin counts match their kind, no dangling ids.
    /// Throws socgen::Error with a description of the first violation.
    /// A passing check is remembered until the next addNet/addCell/addPort,
    /// so the code generator and both HDL emitters check a netlist once.
    void check() const;

    /// Combinational cells in topological (evaluation) order: Kahn's
    /// algorithm with a LIFO ready stack seeded in CellId order. Throws on
    /// a combinational cycle.
    [[nodiscard]] std::vector<CellId> topoOrder() const;

    /// The consumers of every net, built on each call.
    [[nodiscard]] Fanout fanout() const;

private:
    /// Makes `cell` the driver of `net`; throws if it already has one.
    void drive(NetId net, CellId cell);

    std::string name_;
    std::vector<Net> nets_;
    std::vector<Cell> cells_;
    std::vector<NetId> pins_;
    std::vector<Port> ports_;

    /// Set by a passing check(), cleared by every mutation. Atomic so that
    /// threads checking one shared netlist do not race; copies carry it.
    struct CheckedFlag {
        std::atomic<bool> value{false};
        CheckedFlag() = default;
        CheckedFlag(const CheckedFlag& other) : value(other.get()) {}
        CheckedFlag& operator=(const CheckedFlag& other) {
            set(other.get());
            return *this;
        }
        [[nodiscard]] bool get() const { return value.load(std::memory_order_relaxed); }
        void set(bool v) { value.store(v, std::memory_order_relaxed); }
    };
    mutable CheckedFlag checked_;
};

/// Expected input/output pin counts for a cell kind ({-1,…} = variadic).
struct PinSpec {
    int inputs;   ///< -1 means "one or more"
    int outputs;
};
[[nodiscard]] PinSpec pinSpec(CellKind kind);

} // namespace socgen::rtl
