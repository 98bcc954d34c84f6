#pragma once

#include "socgen/rtl/netlist.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace socgen::rtl {

/// Which RTL simulation engine executes a Netlist.
///
///  - EventDriven: the original two-phase interpreter (NetlistSimulator).
///    Walks the cell tables every cycle; slow but simple — the oracle
///    the other engines are checked against.
///  - Compiled: the levelized backend (CompiledSim). The netlist is
///    compiled once into a linear evaluation program over a flat value
///    array; quiescent subgraphs are skipped via dirty tracking.
///  - Codegen: the generated-C++ backend (CodegenSim). The levelized
///    program is emitted as a C++ translation unit, compiled by the
///    host toolchain, and dlopened; requires a usable compiler and
///    degrades Codegen → Compiled via makeSimulator (see DESIGN.md §15).
///  - Auto: the SOCGEN_SIM_BACKEND override when set, otherwise
///    Compiled (DESIGN.md §10). Codegen is opt-in so a plain run never
///    pays a host-compiler invocation unasked.
enum class SimBackend { Auto, EventDriven, Compiled, Codegen };

[[nodiscard]] std::string_view simBackendName(SimBackend backend);

/// Parses "auto" / "event" / "compiled" / "codegen" (also accepts
/// "event-driven"); throws socgen::Error on anything else.
[[nodiscard]] SimBackend simBackendFromString(std::string_view text);

/// Resolves the SOCGEN_SIM_BACKEND environment override: returns the
/// parsed env value when the variable is set and non-empty, otherwise
/// `fallback`. Throws socgen::Error on an unparsable value.
[[nodiscard]] SimBackend simBackendFromEnv(SimBackend fallback = SimBackend::Auto);

/// One hop of the graceful backend degradation chain, reported through
/// the process-wide fallback hook: makeSimulator was asked for
/// `requested` but built `chosen` instead, for `reason` (no host
/// compiler, compile or load failure). Structured so services can
/// count and surface degradations instead of grepping warning logs.
struct SimBackendFallback {
    std::string netlist;    ///< Netlist::name()
    SimBackend requested = SimBackend::Auto;
    SimBackend chosen = SimBackend::Auto;
    std::string reason;
};

using SimBackendFallbackHook = std::function<void(const SimBackendFallback&)>;

/// Installs the fallback observer and returns the previous one (install
/// nullptr to restore the default, which logs a warning). Process-wide;
/// tests swap it in and out around a case.
SimBackendFallbackHook setSimBackendFallbackHook(SimBackendFallbackHook hook);

/// Common interface of the RTL simulation backends. Semantics are
/// pinned by the event-driven engine and enforced by the differential
/// suite (tests/test_rtl_diff_sim.cpp): any observable divergence
/// between backends is a bug.
class Simulator {
public:
    virtual ~Simulator() = default;

    /// "event", "compiled", or "codegen" — which engine actually runs.
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

/// Builds a simulator for `netlist`:
///  - EventDriven: the interpreter.
///  - Compiled: the levelized backend.
///  - Codegen: the generated-C++ backend, degrading to Compiled on a
///    CodegenError (no host compiler, compile or load failure); the hop
///    fires the fallback hook with a structured reason. Use CodegenSim
///    directly for strict (throwing) construction.
///  - Auto: the SOCGEN_SIM_BACKEND override when set, otherwise Compiled.
[[nodiscard]] std::unique_ptr<Simulator> makeSimulator(const Netlist& netlist,
                                                       SimBackend backend = SimBackend::Auto);

} // namespace socgen::rtl
