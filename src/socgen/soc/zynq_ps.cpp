#include "socgen/soc/zynq_ps.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

namespace socgen::soc {

ZynqPs::ZynqPs(std::string name, Memory& memory, GpInterconnect& gp)
    : name_(std::move(name)), memory_(memory), gp_(gp) {}

void ZynqPs::task(std::string label, std::uint64_t cycles, TaskFn fn) {
    Op op;
    op.kind = OpKind::Task;
    op.label = std::move(label);
    op.cycles = cycles;
    op.fn = std::move(fn);
    program_.push_back(std::move(op));
}

void ZynqPs::writeReg(std::uint64_t address, std::uint32_t value) {
    Op op;
    op.kind = OpKind::WriteReg;
    op.address = address;
    op.value = value;
    program_.push_back(std::move(op));
}

void ZynqPs::pollEq(std::uint64_t address, std::uint32_t mask, std::uint32_t expect,
                    std::uint64_t pollInterval) {
    Op op;
    op.kind = OpKind::Poll;
    op.address = address;
    op.mask = mask;
    op.expect = expect;
    op.pollInterval = pollInterval == 0 ? 1 : pollInterval;
    program_.push_back(std::move(op));
}

void ZynqPs::delay(std::uint64_t cycles) {
    Op op;
    op.kind = OpKind::Delay;
    op.cycles = cycles;
    program_.push_back(std::move(op));
}

void ZynqPs::waitIrq(IrqLine& line, std::uint64_t wakeLatency) {
    Op op;
    op.kind = OpKind::WaitIrq;
    op.irq = &line;
    op.cycles = wakeLatency;
    program_.push_back(std::move(op));
}

void ZynqPs::waitIrqWithFallback(IrqLine& line, std::uint64_t address,
                                 std::uint32_t mask, std::uint32_t expect,
                                 std::uint64_t wakeLatency,
                                 std::uint64_t pollInterval) {
    Op op;
    op.kind = OpKind::WaitIrq;
    op.irq = &line;
    op.cycles = wakeLatency;
    op.address = address;
    op.mask = mask;
    op.expect = expect;
    op.pollInterval = pollInterval == 0 ? 1 : pollInterval;
    op.hasIrqFallback = true;
    program_.push_back(std::move(op));
}

void ZynqPs::startNextOp() {
    Op op = std::move(program_.front());
    program_.pop_front();
    ++opsExecuted_;
    switch (op.kind) {
    case OpKind::Task:
        if (op.fn) {
            op.fn(memory_);
        }
        taskCycles_ += op.cycles;
        busyFor_ = op.cycles;
        break;
    case OpKind::WriteReg: {
        gp_.write(op.address, op.value);
        busyFor_ = gp_.consumeAccessCycles();
        driverCycles_ += busyFor_;
        break;
    }
    case OpKind::Poll:
        pollingActive_ = true;
        pollingOp_ = std::move(op);
        busyFor_ = 0;
        waitStartTick_ = tickCount_;
        break;
    case OpKind::Delay:
        busyFor_ = op.cycles;
        break;
    case OpKind::WaitIrq:
        irqWaitActive_ = true;
        pollingOp_ = std::move(op);
        busyFor_ = 0;
        waitStartTick_ = tickCount_;
        break;
    }
}

bool ZynqPs::tick() {
    ++tickCount_;
    if (busyFor_ > 0) {
        --busyFor_;
        ++cyclesBusy_;
        return true;
    }
    if (irqWaitActive_) {
        if (pollingOp_.irq->acknowledge()) {
            irqWaitActive_ = false;
            busyFor_ = pollingOp_.cycles;  // ISR entry / context switch
            ++irqWakeups_;
            ++cyclesBusy_;
            return true;
        }
        if (irqWatchdog_ > 0 && tickCount_ - waitStartTick_ >= irqWatchdog_) {
            ++irqWatchdogFires_;
            if (irqFallbackEnabled_ && pollingOp_.hasIrqFallback) {
                // The interrupt edge is presumed lost; degrade to the
                // busy-wait driver path against the completion register.
                ++irqFallbacks_;
                irqWaitActive_ = false;
                pollingActive_ = true;
                waitStartTick_ = tickCount_;
                ++cyclesBusy_;
                return true;
            }
            throw WatchdogError(format(
                "%s: IRQ '%s' not raised within %llu cycles (raised %llu times total)",
                name_.c_str(), pollingOp_.irq->name().c_str(),
                static_cast<unsigned long long>(irqWatchdog_),
                static_cast<unsigned long long>(pollingOp_.irq->raiseCount())));
        }
        return false;  // sleeping: no bus traffic, no progress
    }
    if (pollingActive_) {
        const std::uint32_t value = gp_.read(pollingOp_.address);
        const std::uint64_t accessCycles = gp_.consumeAccessCycles();
        driverCycles_ += accessCycles;
        ++cyclesBusy_;
        lastPollValue_ = value;
        if ((value & pollingOp_.mask) == pollingOp_.expect) {
            pollingActive_ = false;
            busyFor_ = accessCycles;
        } else {
            if (pollWatchdog_ > 0 && tickCount_ - waitStartTick_ >= pollWatchdog_) {
                throw WatchdogError(format(
                    "%s: poll of 0x%llx stuck for %llu cycles "
                    "(mask 0x%x expect 0x%x, last value 0x%x)",
                    name_.c_str(),
                    static_cast<unsigned long long>(pollingOp_.address),
                    static_cast<unsigned long long>(tickCount_ - waitStartTick_),
                    pollingOp_.mask, pollingOp_.expect, value));
            }
            busyFor_ = accessCycles + pollingOp_.pollInterval;
        }
        return true;
    }
    if (program_.empty()) {
        return false;
    }
    startNextOp();
    ++cyclesBusy_;
    return true;
}

std::uint64_t ZynqPs::quietFor() const {
    if (busyFor_ > 0) {
        return busyFor_ - 1;
    }
    if (irqWaitActive_) {
        if (pollingOp_.irq->pending()) {
            return 0;
        }
        if (irqWatchdog_ == 0) {
            return sim::kUnbounded;
        }
        // The watchdog fires on the tick that brings tickCount_ to the
        // deadline; every tick before it only sleeps.
        const std::uint64_t deadline = waitStartTick_ + irqWatchdog_;
        return deadline > tickCount_ + 1 ? deadline - tickCount_ - 1 : 0;
    }
    return idle() ? sim::kUnbounded : 0;
}

bool ZynqPs::skip(std::uint64_t cycles) {
    tickCount_ += cycles;
    if (busyFor_ > 0) {
        busyFor_ -= cycles;
        cyclesBusy_ += cycles;
        return true;
    }
    return false;  // asleep on an IRQ, or idle
}

bool ZynqPs::idle() const {
    return program_.empty() && busyFor_ == 0 && !pollingActive_ && !irqWaitActive_;
}

std::string ZynqPs::debugState() const {
    if (irqWaitActive_) {
        return format("waiting for IRQ '%s' since tick %llu",
                      pollingOp_.irq->name().c_str(),
                      static_cast<unsigned long long>(waitStartTick_));
    }
    if (pollingActive_) {
        return format("polling 0x%llx (mask 0x%x expect 0x%x, last 0x%x) since tick %llu",
                      static_cast<unsigned long long>(pollingOp_.address),
                      pollingOp_.mask, pollingOp_.expect, lastPollValue_,
                      static_cast<unsigned long long>(waitStartTick_));
    }
    if (!program_.empty() || busyFor_ > 0) {
        return format("%zu op(s) queued, busy for %llu more cycles", program_.size(),
                      static_cast<unsigned long long>(busyFor_));
    }
    return {};
}

} // namespace socgen::soc
