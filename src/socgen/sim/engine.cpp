#include "socgen/sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace socgen::sim {

std::vector<std::string> DeadlockReport::blockedComponents() const {
    std::vector<std::string> names;
    for (const auto& c : components) {
        if (!c.idle) {
            names.push_back(c.name);
        }
    }
    return names;
}

std::string DeadlockReport::render() const {
    std::ostringstream os;
    os << "deadlock: no progress for " << stallCycles << " cycles at cycle " << cycle
       << "; blocked components:";
    bool any = false;
    for (const auto& c : components) {
        if (c.idle) {
            continue;
        }
        any = true;
        os << "\n  - " << c.name << " (last progress at cycle " << c.lastProgressCycle << ")";
        if (!c.detail.empty()) {
            os << ": " << c.detail;
        }
    }
    if (!any) {
        os << " none";
    }
    if (!channels.empty()) {
        os << "\nchannel state:";
        for (const auto& ch : channels) {
            os << "\n  - " << ch.name << ": " << ch.occupancy << "/" << ch.capacity << " words";
            if (ch.full) {
                os << " [FULL]";
            } else if (ch.empty) {
                os << " [EMPTY]";
            }
            os << ", push stalls " << ch.pushStalls << ", pop stalls " << ch.popStalls;
        }
    }
    return os.str();
}

DeadlockError::DeadlockError(DeadlockReport report)
    : SimulationError(report.render()), report_(std::move(report)) {}

void Engine::add(Component& component) {
    component.engine_ = this;
    component.slot_ = slots_.size();
    Slot slot;
    slot.component = &component;
    slot.sleeps = component.canSleep();
    slot.lastProgress = now_;
    slots_.push_back(slot);
    if (awake_.size() * 64 < slots_.size()) {
        awake_.push_back(0);
    }
    markAwake(component.slot_, true);
    if (slot.sleeps) {
        ++sleepers_;
        ++awakeSleepers_;
    }
}

void Engine::addProbe(Probe& probe) {
    probes_.push_back(&probe);
}

void Engine::addChannelWatch(std::function<DeadlockReport::ChannelState()> watch) {
    channelWatches_.push_back(std::move(watch));
}

std::uint64_t Engine::realTicks(const Component& component) const {
    return component.engine_ == this ? slots_[component.slot_].ticks : 0;
}

void Engine::settleAndWake(std::size_t index) {
    Slot& slot = slots_[index];
    const std::uint64_t through = frontierOf(index);
    // Called even when no slept cycle has passed: a sleeper that owes
    // moves stops owing at its wake.
    const std::uint64_t last = slot.component->skip(slot.sleptFrom, through - slot.sleptFrom);
    if (last != kNoProgress) {
        slot.lastProgress = last;
        stallFrom_ = std::max(stallFrom_, last + 1);
    }
    slot.asleep = false;
    ++awakeSleepers_;
    if (slot.wakeAt != kUnbounded) {  // woken before its quiet span ended
        timers_.erase(std::find_if(timers_.begin(), timers_.end(),
                                   [&](const Timer& t) { return t.slot == index; }));
    }
    markAwake(index, true);
}

void Engine::wakeAll() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        wake(i);
    }
}

void Engine::wakeDue() {
    while (!timers_.empty() && timers_.back().wakeAt <= now_) {
        const std::size_t index = timers_.back().slot;
        timers_.pop_back();
        slots_[index].wakeAt = kUnbounded;
        settleAndWake(index);
    }
}

void Engine::tickCycle() {
    frontier_ = now_;
    if (nextWake() <= now_) {
        wakeDue();
    }
    ticked_.clear();
    Slot* const slots = slots_.data();
    // A slot woken during the loop ticks on this cycle if its turn is
    // still to come, else from the next one.
    for (std::size_t i = nextAwake(0); i < slots_.size(); i = nextAwake(i + 1)) {
        cursor_ = i;
        Slot& slot = slots[i];
        ++slot.ticks;
        if (slot.component->tick()) {
            slot.lastProgress = now_;
            stallFrom_ = now_ + 1;
        }
        if (slot.sleeps) {
            ticked_.push_back(i);
        }
    }
    cursor_ = kAfterTicks;
    ++steps_;
    // A component falls asleep only once the whole cycle has run, so an
    // act of a later component that ends its quiet span is seen at once.
    const std::uint64_t sleptFrom = now_ + 1;
    for (const std::size_t i : ticked_) {
        Slot& slot = slots[i];
        const std::uint64_t quiet = slot.component->fallAsleep();
        if (quiet == 0) {
            continue;
        }
        slot.asleep = true;
        slot.sleptFrom = sleptFrom;
        slot.wakeAt = quiet < kUnbounded - sleptFrom ? sleptFrom + quiet : kUnbounded;
        if (slot.wakeAt != kUnbounded) {
            const auto later = [](std::uint64_t at, const Timer& t) { return at > t.wakeAt; };
            timers_.insert(std::upper_bound(timers_.begin(), timers_.end(), slot.wakeAt, later),
                           Timer{slot.wakeAt, i});
        }
        --awakeSleepers_;
        markAwake(i, false);
    }
}

std::uint64_t Engine::jumpLength(std::uint64_t limit) {
    std::uint64_t span = std::min(limit, nextWake() - now_);
    for (const Probe* probe : probes_) {
        if (span == 0) {
            return 0;
        }
        span = std::min(span, probe->horizon());
    }
    // Components that never sleep are asked last: their quietFor() may
    // cost more than a field read.
    if (sleepers_ == slots_.size()) {
        return span;
    }
    for (std::size_t i = nextAwake(0); i < slots_.size(); i = nextAwake(i + 1)) {
        if (span == 0) {
            return 0;
        }
        span = std::min(span, slots_[i].component->quietFor());
    }
    return span;
}

bool Engine::everyComponentIdle() {
    // A sleeper's idle() holds over its sleep, and only its own tick can
    // make it idle: the busy component found last time is still busy if it
    // has slept through this cycle.
    if (busy_ < slots_.size() && slots_[busy_].asleep && slots_[busy_].sleptFrom <= now_) {
        return false;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].component->idle()) {
            busy_ = i;
            return false;
        }
    }
    return true;
}

void Engine::skipAwake(std::uint64_t cycles) {
    if (sleepers_ == slots_.size()) {
        return;  // every component sleeps through its own quiet spans
    }
    for (Slot& slot : slots_) {
        if (slot.sleeps) {
            continue;
        }
        const std::uint64_t last = slot.component->skip(now_, cycles);
        if (last != kNoProgress) {
            slot.lastProgress = last;
            stallFrom_ = std::max(stallFrom_, last + 1);
        }
    }
}

void Engine::observe(std::uint64_t cycles) {
    sampling_ = true;
    for (Probe* probe : probes_) {
        probe->sample(cycles);
    }
    sampling_ = false;
    now_ += cycles;
    frontier_ = now_;
    cursor_ = 0;
}

DeadlockReport Engine::snapshot(std::uint64_t stallCycles) {
    wakeAll();
    DeadlockReport report;
    report.cycle = now_;
    report.stallCycles = stallCycles;
    report.components.reserve(slots_.size());
    for (const Slot& slot : slots_) {
        DeadlockReport::ComponentState state;
        state.name = slot.component->name();
        state.idle = slot.component->idle();
        state.lastProgressCycle = slot.lastProgress;
        state.detail = slot.component->debugState();
        report.components.push_back(std::move(state));
    }
    report.channels.reserve(channelWatches_.size());
    for (const auto& watch : channelWatches_) {
        report.channels.push_back(watch());
    }
    return report;
}

std::uint64_t Engine::advance(std::uint64_t maxCycles, std::uint64_t stallLimit,
                              bool untilIdle) {
    const std::uint64_t start = now_;
    stallFrom_ = now_;
    try {
        while (now_ - start < maxCycles) {
            // A jump ends where the deadlock verdict would fire if no
            // sleeper progressed.
            std::uint64_t room = maxCycles - (now_ - start);
            if (untilIdle) {
                room = std::min(room, stallLimit - (now_ - stallFrom_));
            }
            // Each run starts with a real cycle: everything is awake then,
            // and an all-idle system ends on it.
            std::uint64_t cycles = now_ == start || awakeSleepers_ > 0 ? 0 : jumpLength(room);
            bool allIdle = false;
            if (cycles > 0) {
                frontier_ = now_ + cycles - 1;
                cursor_ = kAfterTicks;
                skipAwake(cycles);
            } else {
                cycles = 1;
                if (std::any_of(probes_.begin(), probes_.end(),
                                [](const Probe* p) { return p->horizon() == 0; })) {
                    wakeAll();  // a probe acts on this cycle: it sees settled state
                }
                tickCycle();
                allIdle = untilIdle && everyComponentIdle();
            }
            const std::uint64_t end = now_ + cycles;
            bool deadlocked = untilIdle && end - stallFrom_ >= stallLimit;
            if (deadlocked) {
                // Progress made by sleepers is known once they are settled.
                wakeAll();
                deadlocked = end - stallFrom_ >= stallLimit;
            }
            // Settle every sleeper before the probes sample the last cycle.
            if (allIdle || deadlocked || end - start >= maxCycles) {
                wakeAll();
                if (allIdle) {
                    // The verdict asks every component, now settled.
                    for (const Slot& slot : slots_) {
                        (void)slot.component->idle();
                    }
                }
            }
            observe(cycles);
            if (allIdle) {
                return now_ - start;
            }
            if (deadlocked) {
                throw DeadlockError(snapshot(end - stallFrom_));
            }
        }
    } catch (...) {
        wakeAll();
        frontier_ = now_;
        cursor_ = 0;
        sampling_ = false;
        throw;
    }
    if (untilIdle) {
        throw SimulationError("simulation exceeded " + std::to_string(maxCycles) +
                              " cycles without quiescing");
    }
    return now_ - start;
}

std::uint64_t Engine::runUntilIdle(std::uint64_t maxCycles, std::uint64_t stallLimit) {
    return advance(maxCycles, stallLimit, true);
}

void Engine::run(std::uint64_t cycles) {
    (void)advance(cycles, kUnbounded, false);
}

} // namespace socgen::sim
