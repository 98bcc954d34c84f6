#pragma once

#include "socgen/rtl/netlist.hpp"

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace socgen::rtl {

/// Which RTL simulation engine executes a Netlist.
///
///  - EventDriven: the original two-phase interpreter (NetlistSimulator).
///    Walks the cell tables every cycle; slow but simple — the oracle
///    the compiled engine is checked against.
///  - Compiled: the levelized backend (CompiledSim), the default. The
///    netlist is compiled once into a linear evaluation program over a
///    flat value array; quiescent subgraphs are skipped via dirty
///    tracking.
enum class SimBackend { EventDriven, Compiled };

/// "event" or "compiled", matching Simulator::backendName().
[[nodiscard]] std::string_view simBackendName(SimBackend backend);

/// Common interface of the RTL simulation backends. Semantics are
/// pinned by the event-driven engine and enforced by the differential
/// suite (tests/test_rtl_diff_sim.cpp): any observable divergence
/// between backends is a bug.
class Simulator {
public:
    virtual ~Simulator() = default;

    /// "event" or "compiled" — which engine runs.
    [[nodiscard]] virtual std::string_view backendName() const = 0;

    /// Drives an input port for subsequent evaluations.
    virtual void setInput(std::string_view port, std::uint64_t value) = 0;

    /// Settles combinational logic with current inputs and state.
    virtual void evaluate() = 0;

    /// evaluate() then advance registers/BRAMs/FSMs by one clock edge.
    virtual void step() = 0;

    /// Value of an output (or any) port after the last evaluate()/step().
    [[nodiscard]] virtual std::uint64_t output(std::string_view port) const = 0;

    /// Raw net value (post-evaluation); mainly for tests and tracing.
    [[nodiscard]] virtual std::uint64_t netValue(NetId id) const = 0;

    /// Contents of a Bram cell's memory (empty for non-Bram cells).
    /// Used by the differential suite to compare final memory state.
    [[nodiscard]] virtual std::vector<std::uint64_t> memoryContents(CellId id) const = 0;

    /// Resets all sequential state to zero (inputs are retained).
    virtual void reset() = 0;

    [[nodiscard]] virtual std::uint64_t cycleCount() const = 0;
};

/// Builds a simulator for `netlist` on `backend`.
[[nodiscard]] std::unique_ptr<Simulator> makeSimulator(const Netlist& netlist,
                                                       SimBackend backend = SimBackend::Compiled);

} // namespace socgen::rtl
