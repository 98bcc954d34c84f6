#include "socgen/rtl/sim_backend.hpp"

#include "socgen/rtl/compiled_sim.hpp"
#include "socgen/rtl/netlist_sim.hpp"

namespace socgen::rtl {

std::string_view simBackendName(SimBackend backend) {
    return backend == SimBackend::EventDriven ? "event" : "compiled";
}

std::unique_ptr<Simulator> makeSimulator(const Netlist& netlist, SimBackend backend) {
    if (backend == SimBackend::EventDriven) {
        return std::make_unique<NetlistSimulator>(netlist);
    }
    return std::make_unique<CompiledSim>(netlist);
}

} // namespace socgen::rtl
