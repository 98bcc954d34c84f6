#pragma once

#include "socgen/rtl/sim_backend.hpp"
#include "socgen/sim/engine.hpp"

#include <memory>
#include <string>

namespace socgen::soc {

/// Adapts a gate-level rtl::Simulator to a sim::Engine component, so a
/// generated core's netlist can be clocked inside the SoC cycle engine
/// (one netlist clock per engine cycle) under either RTL backend. Used
/// by runtime tests to cosimulate a core at gate level next to the
/// behavioural system model; the backend is Compiled unless the
/// instance asks for the event-driven oracle.
class RtlCoreComponent final : public sim::Component {
public:
    /// `netlist` must outlive the component. `donePort` names an output
    /// that reads non-zero when the core has finished (e.g. "ap_done");
    /// empty means the core free-runs and reports idle immediately.
    RtlCoreComponent(std::string name, const rtl::Netlist& netlist,
                     std::string donePort = "ap_done",
                     rtl::SimBackend backend = rtl::SimBackend::Compiled);

    [[nodiscard]] const std::string& name() const override { return name_; }
    bool tick() override;
    [[nodiscard]] bool idle() const override;
    [[nodiscard]] std::string debugState() const override;

    /// The underlying gate-level simulator (drive inputs, read outputs).
    [[nodiscard]] rtl::Simulator& sim() { return *sim_; }
    [[nodiscard]] const rtl::Simulator& sim() const { return *sim_; }

private:
    std::string name_;
    std::string donePort_;
    std::unique_ptr<rtl::Simulator> sim_;
};

} // namespace socgen::soc
