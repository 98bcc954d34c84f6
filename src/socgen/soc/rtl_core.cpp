#include "socgen/soc/rtl_core.hpp"

#include "socgen/common/strings.hpp"

namespace socgen::soc {

RtlCoreComponent::RtlCoreComponent(std::string name, const rtl::Netlist& netlist,
                                   std::string donePort, rtl::SimBackend backend)
    : name_(std::move(name)),
      donePort_(std::move(donePort)),
      sim_(rtl::makeSimulator(netlist, backend)) {}

bool RtlCoreComponent::tick() {
    if (idle()) {
        return false;
    }
    sim_->step();
    sim_->evaluate();
    return true;
}

bool RtlCoreComponent::idle() const {
    if (donePort_.empty()) {
        return true;
    }
    return sim_->output(donePort_) != 0;
}

std::string RtlCoreComponent::debugState() const {
    return format("%s backend, cycle %llu, %s", std::string(sim_->backendName()).c_str(),
                  static_cast<unsigned long long>(sim_->cycleCount()),
                  idle() ? "done" : "running");
}

} // namespace socgen::soc
