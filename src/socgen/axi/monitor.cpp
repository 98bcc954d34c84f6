#include "socgen/axi/monitor.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>

namespace socgen::axi {

void StreamMonitor::sample(std::uint64_t cycles) {
    samples_ += cycles;
    occupancySum_ += cycles * channel_->size();
    maxObservedFrameBeats_ =
        std::max(maxObservedFrameBeats_, channel_->beatsSinceLastTlast());
}

void StreamMonitor::check() const {
    const auto& c = *channel_;
    if (c.beatsPopped() + c.size() != c.beatsPushed()) {
        throw SimulationError(format(
            "stream %s lost beats: pushed=%llu popped=%llu in-flight=%zu",
            c.name().c_str(), static_cast<unsigned long long>(c.beatsPushed()),
            static_cast<unsigned long long>(c.beatsPopped()), c.size()));
    }
    if (c.size() > c.capacity()) {
        throw SimulationError(format("stream %s exceeded capacity: %zu > %zu",
                                     c.name().c_str(), c.size(), c.capacity()));
    }
    if (c.highWater() > c.capacity()) {
        throw SimulationError(format("stream %s high-water above capacity",
                                     c.name().c_str()));
    }
    const std::uint64_t openFrame =
        std::max(maxObservedFrameBeats_, c.beatsSinceLastTlast());
    if (maxFrameBeats_ != 0 && openFrame > maxFrameBeats_) {
        throw SimulationError(format(
            "stream %s TLAST violation: %llu beats without end-of-frame (limit %llu)",
            c.name().c_str(), static_cast<unsigned long long>(openFrame),
            static_cast<unsigned long long>(maxFrameBeats_)));
    }
}

double StreamMonitor::averageOccupancy() const {
    return samples_ == 0 ? 0.0
                         : static_cast<double>(occupancySum_) /
                               static_cast<double>(samples_);
}

} // namespace socgen::axi
