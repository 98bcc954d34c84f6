#pragma once

#include "socgen/sim/engine.hpp"
#include "socgen/soc/interconnect.hpp"
#include "socgen/soc/irq.hpp"
#include "socgen/soc/memory.hpp"

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace socgen::soc {

/// Model of the dual-core ARM Cortex-A9 processing system: it executes a
/// queued software program consisting of software tasks (host callables
/// with a modelled cycle cost), memory-mapped register accesses through
/// the GP interconnect, and status polling — exactly the operations the
/// generated driver API performs (writeDMA/readDMA and AXI-Lite
/// configuration, paper Section V).
class ZynqPs final : public sim::Component {
public:
    using TaskFn = std::function<void(Memory&)>;

    ZynqPs(std::string name, Memory& memory, GpInterconnect& gp);

    // -- program construction (executed in FIFO order) ------------------------

    /// Pure software task: runs `fn` against memory and occupies the CPU
    /// for `cycles` PL-clock cycles.
    void task(std::string label, std::uint64_t cycles, TaskFn fn);

    /// Single AXI-Lite register write.
    void writeReg(std::uint64_t address, std::uint32_t value);

    /// Polls `address` until (value & mask) == expect, retrying every
    /// `pollInterval` cycles (driver-style busy-wait).
    void pollEq(std::uint64_t address, std::uint32_t mask, std::uint32_t expect,
                std::uint64_t pollInterval = 16);

    /// Fixed stall (e.g. cache maintenance in the generated driver).
    void delay(std::uint64_t cycles);

    /// Blocks until `line` is raised, then acknowledges it and charges
    /// `wakeLatency` cycles (context switch / ISR entry). Unlike pollEq
    /// this generates no bus traffic while waiting — the interrupt-driven
    /// driver alternative to busy-wait polling.
    void waitIrq(IrqLine& line, std::uint64_t wakeLatency = 24);

    /// waitIrq with a registered escape hatch: if the IRQ watchdog
    /// expires, the wait degrades into polling `address` for
    /// (value & mask) == expect instead of throwing — the hardened driver
    /// pattern for a completion source whose interrupt edge may be lost.
    void waitIrqWithFallback(IrqLine& line, std::uint64_t address, std::uint32_t mask,
                             std::uint32_t expect, std::uint64_t wakeLatency = 24,
                             std::uint64_t pollInterval = 16);

    // -- watchdogs -----------------------------------------------------------
    // Budgets are in PL-clock cycles per operation; 0 (default) disables.
    // A poll exceeding its budget throws WatchdogError naming the address,
    // mask and last observed value. An IRQ wait exceeding its budget falls
    // back to polling when the op carries a fallback spec (and fallback is
    // enabled), else throws WatchdogError naming the line.
    void setPollWatchdog(std::uint64_t cycles) { pollWatchdog_ = cycles; }
    void setIrqWatchdog(std::uint64_t cycles, bool fallbackToPoll = true) {
        irqWatchdog_ = cycles;
        irqFallbackEnabled_ = fallbackToPoll;
    }
    [[nodiscard]] std::uint64_t irqWatchdogFires() const { return irqWatchdogFires_; }
    [[nodiscard]] std::uint64_t irqFallbacks() const { return irqFallbacks_; }

    // sim::Component
    [[nodiscard]] const std::string& name() const override { return name_; }
    bool tick() override;
    [[nodiscard]] bool idle() const override;
    /// Quiet while counting down a task, delay, register access or poll
    /// interval (bar the countdown's last tick, after which the PS may go
    /// idle), while asleep on an IRQ that is not pending (up to the IRQ
    /// watchdog's deadline), and while idle.
    [[nodiscard]] std::uint64_t quietFor() const override;
    bool skip(std::uint64_t cycles) override;
    [[nodiscard]] std::string debugState() const override;

    // -- statistics ----------------------------------------------------------
    [[nodiscard]] std::uint64_t cyclesBusy() const { return cyclesBusy_; }
    [[nodiscard]] std::uint64_t taskCycles() const { return taskCycles_; }
    [[nodiscard]] std::uint64_t driverCycles() const { return driverCycles_; }
    [[nodiscard]] std::uint64_t irqWakeups() const { return irqWakeups_; }
    [[nodiscard]] std::size_t opsExecuted() const { return opsExecuted_; }

private:
    enum class OpKind { Task, WriteReg, Poll, Delay, WaitIrq };

    struct Op {
        OpKind kind = OpKind::Delay;
        std::string label;
        std::uint64_t cycles = 0;
        TaskFn fn;
        std::uint64_t address = 0;
        std::uint32_t value = 0;
        std::uint32_t mask = 0;
        std::uint32_t expect = 0;
        std::uint64_t pollInterval = 16;
        IrqLine* irq = nullptr;
        bool hasIrqFallback = false;
    };

    void startNextOp();

    std::string name_;
    Memory& memory_;
    GpInterconnect& gp_;
    std::deque<Op> program_;
    std::uint64_t busyFor_ = 0;
    bool pollingActive_ = false;
    bool irqWaitActive_ = false;
    Op pollingOp_;
    std::uint64_t cyclesBusy_ = 0;
    std::uint64_t taskCycles_ = 0;
    std::uint64_t driverCycles_ = 0;
    std::uint64_t irqWakeups_ = 0;
    std::size_t opsExecuted_ = 0;
    std::uint64_t tickCount_ = 0;
    std::uint64_t waitStartTick_ = 0;  ///< tick at which the active poll/wait began
    std::uint32_t lastPollValue_ = 0;
    std::uint64_t pollWatchdog_ = 0;
    std::uint64_t irqWatchdog_ = 0;
    bool irqFallbackEnabled_ = true;
    std::uint64_t irqWatchdogFires_ = 0;
    std::uint64_t irqFallbacks_ = 0;
};

} // namespace socgen::soc
