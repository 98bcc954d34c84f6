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
    components_.push_back(&component);
    lastProgress_.push_back(now_);
}

void Engine::addProbe(Probe& probe) {
    probes_.push_back(&probe);
}

void Engine::addChannelWatch(std::function<DeadlockReport::ChannelState()> watch) {
    channelWatches_.push_back(std::move(watch));
}

void Engine::stepOnce(bool& anyProgress, bool& allIdle) {
    anyProgress = false;
    allIdle = true;
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (components_[i]->tick()) {
            anyProgress = true;
            lastProgress_[i] = now_;
        }
    }
    for (Component* c : components_) {
        if (!c->idle()) {
            allIdle = false;
            break;
        }
    }
    for (Probe* probe : probes_) {
        probe->sample(1);
    }
    ++now_;
}

std::uint64_t Engine::quietSpan(std::uint64_t limit) const {
    std::uint64_t span = limit;
    for (const Component* c : components_) {
        span = std::min(span, c->quietFor());
        if (span < 2) {
            return 0;
        }
    }
    for (const Probe* probe : probes_) {
        span = std::min(span, probe->horizon());
        if (span < 2) {
            return 0;
        }
    }
    // With everything idle the run ends on the next (real) step.
    const bool allIdle = std::all_of(components_.begin(), components_.end(),
                                     [](const Component* c) { return c->idle(); });
    return allIdle ? 0 : span;
}

bool Engine::skipSpan(std::uint64_t cycles) {
    bool anyProgress = false;
    const std::uint64_t last = now_ + cycles - 1;
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (components_[i]->skip(cycles)) {
            anyProgress = true;
            lastProgress_[i] = last;
        }
    }
    for (Probe* probe : probes_) {
        probe->sample(cycles);
    }
    now_ += cycles;
    return anyProgress;
}

DeadlockReport Engine::snapshot(std::uint64_t stallCycles) const {
    DeadlockReport report;
    report.cycle = now_;
    report.stallCycles = stallCycles;
    report.components.reserve(components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
        DeadlockReport::ComponentState state;
        state.name = components_[i]->name();
        state.idle = components_[i]->idle();
        state.lastProgressCycle = lastProgress_[i];
        state.detail = components_[i]->debugState();
        report.components.push_back(std::move(state));
    }
    report.channels.reserve(channelWatches_.size());
    for (const auto& watch : channelWatches_) {
        report.channels.push_back(watch());
    }
    return report;
}

std::uint64_t Engine::runUntilIdle(std::uint64_t maxCycles, std::uint64_t stallLimit) {
    // After a cycle with no quiet span the search backs off (1, 2, 4, 8
    // cycles) so busy stretches do not pay for a scan every cycle.
    constexpr std::uint64_t kMaxBackoff = 8;
    const std::uint64_t start = now_;
    std::uint64_t stalledFor = 0;
    std::uint64_t nextSearch = now_;
    std::uint64_t backoff = 1;
    while (now_ - start < maxCycles) {
        // A span stops one cycle short of the cycle budget and of the
        // stall verdict, so both still fire on a real step.
        const std::uint64_t limit =
            stalledFor < stallLimit
                ? std::min(maxCycles - (now_ - start), stallLimit - stalledFor) - 1
                : 0;
        if (limit >= 2 && now_ >= nextSearch) {
            const std::uint64_t span = quietSpan(limit);
            if (span >= 2) {
                stalledFor = skipSpan(span) ? 0 : stalledFor + span;
                backoff = 1;
                continue;
            }
            nextSearch = now_ + backoff;
            backoff = std::min(backoff * 2, kMaxBackoff);
        }
        bool anyProgress = false;
        bool allIdle = true;
        stepOnce(anyProgress, allIdle);
        if (allIdle) {
            return now_ - start;
        }
        stalledFor = anyProgress ? 0 : stalledFor + 1;
        if (stalledFor >= stallLimit) {
            throw DeadlockError(snapshot(stalledFor));
        }
    }
    throw SimulationError("simulation exceeded " + std::to_string(maxCycles) +
                          " cycles without quiescing");
}

void Engine::run(std::uint64_t cycles) {
    for (std::uint64_t i = 0; i < cycles; ++i) {
        bool anyProgress = false;
        bool allIdle = true;
        stepOnce(anyProgress, allIdle);
    }
}

} // namespace socgen::sim
