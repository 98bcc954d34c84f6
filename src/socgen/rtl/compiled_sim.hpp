#pragma once

#include "socgen/common/error.hpp"
#include "socgen/rtl/compiled_program.hpp"
#include "socgen/rtl/sim_backend.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace socgen::rtl {

/// Compiled levelized simulation backend.
///
/// Construction levelizes the combinational subgraph once into a
/// CompiledProgram (see compiled_program.hpp): one fixed-layout op per
/// combinational cell sorted by level, plus a sequential update program
/// applied at the clock edge.
///
/// Execution is two-state (0/1 per bit), word-packed: every net's value
/// lives in one 64-bit word of a flat array indexed by NetId. Dirty
/// tracking skips quiescent regions: an op re-evaluates only when one of
/// its input nets changed value, and a changed output enqueues its
/// consumers into per-level worklists, so a settled subgraph costs
/// nothing per cycle. There is no per-event heap scheduling anywhere:
/// a whole cycle is one sweep over the level worklists plus one sweep
/// over the sequential update program.
///
/// Observable semantics are bit-identical to NetlistSimulator at every
/// post-evaluate()/post-step() point (enforced by tests/test_rtl_diff_sim);
/// values read between a step() and the next evaluate() follow the same
/// staleness rule as the event-driven engine (sequential outputs publish
/// at the start of the next evaluate()).
class CompiledSim final : public Simulator {
public:
    /// Compiles `netlist` (kept by reference; must outlive the sim).
    /// Throws socgen::Error on structural problems (combinational cycles).
    explicit CompiledSim(const Netlist& netlist);

    [[nodiscard]] std::string_view backendName() const override { return "compiled"; }
    void setInput(std::string_view port, std::uint64_t value) override;
    void evaluate() override;
    void step() override;
    [[nodiscard]] std::uint64_t output(std::string_view port) const override;
    [[nodiscard]] std::uint64_t netValue(NetId id) const override;
    [[nodiscard]] std::vector<std::uint64_t> memoryContents(CellId id) const override;
    void reset() override;
    [[nodiscard]] std::uint64_t cycleCount() const override { return cycles_; }

    // -- program introspection (tests, docs, benchmarks) ----------------------
    /// Number of combinational ops in the evaluation program.
    [[nodiscard]] std::size_t opCount() const { return prog_.ops.size(); }
    /// Number of levels after levelization (longest comb path + 1).
    [[nodiscard]] std::size_t levelCount() const { return prog_.levels.size(); }
    /// Total op evaluations executed so far — with dirty skipping this is
    /// typically far below opCount() × evaluate() calls.
    [[nodiscard]] std::uint64_t opsEvaluated() const { return opsEvaluated_; }

private:
    void markAllOpsDirty();
    void markConsumers(std::uint32_t net);
    void publishSeqOutputs();
    [[nodiscard]] std::uint64_t evalOp(const CompiledOp& op) const;

    const Netlist& netlist_;
    CompiledProgram prog_;

    // Runtime state.
    std::vector<std::uint64_t> vals_;           ///< one word per net
    std::vector<std::uint64_t> state_;          ///< per seq op
    std::vector<std::vector<std::uint64_t>> mems_;
    std::vector<std::uint8_t> pending_;         ///< per op: queued in worklist
    std::vector<std::vector<std::uint32_t>> worklist_;  ///< per level
    std::vector<std::uint32_t> seqDirty_;       ///< seq ops whose state changed
    std::vector<std::uint8_t> seqDirtyFlag_;
    std::uint64_t cycles_ = 0;
    std::uint64_t opsEvaluated_ = 0;
};

} // namespace socgen::rtl
