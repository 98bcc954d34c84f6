#pragma once

#include "socgen/sim/engine.hpp"

#include <cstdint>
#include <string>
#include <utility>

namespace socgen::soc {

/// A PL-to-PS interrupt line (one of the Zynq's F2P IRQs). Completion
/// sources (DMA channels, accelerator done signals) raise it; the PS
/// model's waitIrq() consumes it. Level-latched: stays pending until
/// acknowledged.
///
/// Fault hooks model a flaky IRQ path: armDrop() swallows the next N
/// edges outright, armDelay() holds the next edge for N cycles. The
/// holder advances a held edge with tickDelay() for every simulated
/// cycle; SystemSimulator does so from an engine probe, which credits a
/// jump of the clock in one call and acts on the cycle the edge is due
/// (delayHorizon()).
///
/// Wake hook: a component asleep until the line is pending parks itself
/// with park(); the edge that sets it pending wakes it.
class IrqLine {
public:
    explicit IrqLine(std::string name) : name_(std::move(name)) {}

    void raise() {
        if (dropArmed_ > 0) {
            --dropArmed_;
            ++dropped_;
            return;
        }
        if (delayArm_ > 0) {
            delayRemaining_ = delayArm_;
            delayArm_ = 0;
            delayHeld_ = true;
            return;
        }
        setPending();
    }

    /// Consumes a pending interrupt; returns false if none.
    bool acknowledge() {
        const bool was = pending_;
        pending_ = false;
        return was;
    }

    // -- fault hooks ---------------------------------------------------------
    void armDrop(std::uint64_t edges = 1) { dropArmed_ += edges; }
    void armDelay(std::uint64_t cycles) { delayArm_ = cycles; }

    /// Advances a held (delayed) edge by `cycles` (at most
    /// delayHorizon() + 1) cycles; delivers it when the delay expires.
    /// No-op unless a delayed edge is in flight.
    void tickDelay(std::uint64_t cycles) {
        if (!delayHeld_) {
            return;
        }
        delayRemaining_ -= cycles;
        if (delayRemaining_ == 0) {
            delayHeld_ = false;
            setPending();
        }
    }

    /// Cycles a held edge can be advanced without delivering it (the
    /// remaining delay minus its last cycle); unbounded with none held.
    [[nodiscard]] std::uint64_t delayHorizon() const {
        return delayHeld_ ? delayRemaining_ - 1 : sim::kUnbounded;
    }

    /// Parks `waiter` until the next edge is delivered (one waiter).
    void park(sim::Component& waiter) { waiter_ = &waiter; }

    [[nodiscard]] bool pending() const { return pending_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::uint64_t raiseCount() const { return raiseCount_; }
    [[nodiscard]] std::uint64_t droppedCount() const { return dropped_; }
    [[nodiscard]] bool delayInFlight() const { return delayHeld_; }

private:
    void setPending() {
        if (waiter_ != nullptr) {
            std::exchange(waiter_, nullptr)->wake();
        }
        pending_ = true;
        ++raiseCount_;
    }

    std::string name_;
    bool pending_ = false;
    std::uint64_t raiseCount_ = 0;
    std::uint64_t dropArmed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t delayArm_ = 0;
    std::uint64_t delayRemaining_ = 0;
    bool delayHeld_ = false;
    sim::Component* waiter_ = nullptr;
};

} // namespace socgen::soc
