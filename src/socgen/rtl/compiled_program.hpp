#pragma once

#include "socgen/rtl/netlist.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace socgen::rtl {

/// One combinational evaluation op: fixed layout, resolved net slots,
/// precomputed width mask, sorted by level in CompiledProgram::ops.
struct CompiledOp {
    CellKind code = CellKind::Const;
    std::uint32_t dst = 0;              ///< output net slot
    std::uint32_t a = 0, b = 0, c = 0;  ///< input net slots
    std::uint64_t mask = 0;             ///< width mask of the driving cell
    std::uint64_t imm = 0;              ///< pre-masked Const value
};

enum class CompiledSeqKind : std::uint8_t { RegAlways, RegEnable, Bram, Fsm };

/// One sequential update op, applied at the clock edge in CellId order
/// (matching the event-driven engine's sweep).
struct CompiledSeqOp {
    CompiledSeqKind kind = CompiledSeqKind::RegAlways;
    std::uint32_t cell = 0;         ///< originating CellId
    std::uint32_t out = 0;          ///< output net slot
    std::uint32_t d = 0;            ///< Reg d / Bram addr
    std::uint32_t en = 0;           ///< Reg en / Bram wdata
    std::uint32_t we = 0;           ///< Bram we
    std::uint64_t mask = 0;
    std::int64_t param = 0;         ///< Fsm state count
    std::uint32_t mem = 0;          ///< index into memDepths (Bram only)
    std::uint32_t statusFirst = 0;  ///< Fsm status slots in fsmStatus
    std::uint32_t statusCount = 0;
};

/// Transparent hash so port lookups by string_view do not allocate a
/// temporary std::string — setInput is called once per port per cycle
/// on the hot stimulus path.
struct PortNameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
        return std::hash<std::string_view>{}(s);
    }
};

/// The immutable result of levelizing one Netlist: a linear evaluation
/// program over a flat value array, which CompiledSim interprets.
struct CompiledProgram {
    std::vector<CompiledOp> ops;                ///< sorted by level
    std::vector<std::uint32_t> opLevel;         ///< level of each op
    std::vector<std::pair<std::uint32_t, std::uint32_t>> levels;  ///< [first, count) into ops
    std::vector<std::uint32_t> consumers;       ///< CSR payload: op indices
    std::vector<std::uint32_t> consumerFirst;   ///< per net, index into consumers
    std::vector<CompiledSeqOp> seqOps;
    std::vector<std::uint32_t> fsmStatus;       ///< flattened Fsm status slots
    std::vector<std::size_t> memDepths;         ///< per Bram mem index
    std::size_t netCount = 0;
    std::unordered_map<std::string, const Port*, PortNameHash, std::equal_to<>>
        portsByName;  ///< into the Netlist
};

[[nodiscard]] inline std::uint64_t compiledMaskForWidth(unsigned width) {
    return width >= 64 ? ~0ULL : (1ULL << width) - 1ULL;
}

/// Levelizes `netlist` (kept by reference; must outlive the program).
/// Every CellKind has a lowering; throws socgen::Error on structural
/// problems (combinational cycles).
[[nodiscard]] CompiledProgram compileProgram(const Netlist& netlist);

} // namespace socgen::rtl
