#include "socgen/rtl/sim_backend.hpp"

#include "socgen/common/env.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/rtl/codegen_emit.hpp"
#include "socgen/rtl/codegen_sim.hpp"
#include "socgen/rtl/compiled_sim.hpp"
#include "socgen/rtl/netlist_sim.hpp"

#include <mutex>
#include <utility>

namespace socgen::rtl {
namespace {

std::mutex g_hookMutex;
SimBackendFallbackHook g_fallbackHook;

/// Fires the installed hook (or the default log line) for one hop of
/// the degradation chain.
void reportFallback(const Netlist& netlist, SimBackend requested, SimBackend chosen,
                    const std::string& reason) {
    SimBackendFallback event;
    event.netlist = netlist.name();
    event.requested = requested;
    event.chosen = chosen;
    event.reason = reason;
    SimBackendFallbackHook hook;
    {
        const std::lock_guard<std::mutex> lock(g_hookMutex);
        hook = g_fallbackHook;
    }
    if (hook) {
        hook(event);
        return;
    }
    Logger::global().warn(format("sim: netlist '%s': %s backend unavailable, using "
                                 "%s (%s)",
                                 event.netlist.c_str(),
                                 std::string(simBackendName(requested)).c_str(),
                                 std::string(simBackendName(chosen)).c_str(),
                                 reason.c_str()));
}

} // namespace

SimBackendFallbackHook setSimBackendFallbackHook(SimBackendFallbackHook hook) {
    const std::lock_guard<std::mutex> lock(g_hookMutex);
    std::swap(g_fallbackHook, hook);
    return hook;
}

std::string_view simBackendName(SimBackend backend) {
    switch (backend) {
    case SimBackend::Auto: return "auto";
    case SimBackend::EventDriven: return "event";
    case SimBackend::Compiled: return "compiled";
    case SimBackend::Codegen: return "codegen";
    }
    return "?";
}

SimBackend simBackendFromString(std::string_view text) {
    if (text == "auto") {
        return SimBackend::Auto;
    }
    if (text == "event" || text == "event-driven") {
        return SimBackend::EventDriven;
    }
    if (text == "compiled") {
        return SimBackend::Compiled;
    }
    if (text == "codegen") {
        return SimBackend::Codegen;
    }
    throw Error(format("unknown sim backend '%s' (expected auto|event|compiled|codegen)",
                       std::string(text).c_str()));
}

SimBackend simBackendFromEnv(SimBackend fallback) {
    const std::optional<std::string> env = envString("SOCGEN_SIM_BACKEND");
    if (!env.has_value()) {
        return fallback;
    }
    try {
        return simBackendFromString(*env);
    } catch (const Error& e) {
        // Name the variable: "compiledd" in a CI matrix must fail the job
        // with a pointer to the line to fix, not silently pick a backend.
        throw Error(format("env SOCGEN_SIM_BACKEND: %s", e.what()));
    }
}

std::unique_ptr<Simulator> makeSimulator(const Netlist& netlist, SimBackend backend) {
    if (backend == SimBackend::Auto) {
        backend = simBackendFromEnv(SimBackend::Auto);
    }
    switch (backend) {
    case SimBackend::EventDriven:
        return std::make_unique<NetlistSimulator>(netlist);
    case SimBackend::Codegen:
        // A codegen-only failure (no host compiler, compile or load
        // error) falls back to the compiled interpreter, which runs the
        // same levelized program. The hop fires the structured fallback
        // hook — degradation is observable, but the caller always gets a
        // working, bit-identical simulator.
        try {
            return std::make_unique<CodegenSim>(netlist);
        } catch (const CodegenError& e) {
            reportFallback(netlist, SimBackend::Codegen, SimBackend::Compiled, e.what());
        }
        return std::make_unique<CompiledSim>(netlist);
    case SimBackend::Compiled:
    case SimBackend::Auto:
        break;
    }
    return std::make_unique<CompiledSim>(netlist);
}

} // namespace socgen::rtl
