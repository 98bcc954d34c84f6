#pragma once

#include "socgen/axi/stream.hpp"
#include "socgen/sim/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace socgen::axi {

/// Protocol monitor for a StreamChannel: records occupancy for every
/// simulated cycle and checks conservation invariants (pushed == popped +
/// in-flight, no beat loss/duplication). SystemSimulator attaches one per
/// channel with the engine as its clock: the channel tells it before each
/// change, and it accounts the cycles since the last change with the state
/// they ended in, so a cycle costs nothing unless a beat moves. Without a
/// clock, sample() accounts cycles by hand.
class StreamMonitor {
public:
    explicit StreamMonitor(StreamChannel& channel, const sim::Engine* clock = nullptr);

    /// Accounts `cycles` cycles that ended in the channel's current state
    /// (without a clock only).
    void sample(std::uint64_t cycles = 1) {
        samples_ += cycles;
        occupancySum_ += cycles * channel_->size();
        maxObservedFrameBeats_ = std::max(maxObservedFrameBeats_, channel_->beatsSinceLastTlast());
    }

    /// Throws SimulationError if an invariant is violated.
    void check() const;

    /// Bounds frame length: check() fails if more than `beats` beats are
    /// ever pushed without a TLAST (a master that never closes a frame
    /// starves TLAST-gated consumers). 0 disables the check.
    void setMaxFrameBeats(std::uint64_t beats) { maxFrameBeats_ = beats; }

    [[nodiscard]] double averageOccupancy() const;
    [[nodiscard]] std::uint64_t samples() const { return samples_ + pending(); }
    [[nodiscard]] const StreamChannel& channel() const { return *channel_; }

private:
    friend class StreamChannel;

    /// Accounts the clocked cycles not yet accounted, before the channel's
    /// state changes.
    void beforeChange() {
        if (const std::uint64_t cycles = pending(); cycles > 0) {
            sample(cycles);
            accounted_ += cycles;
        }
    }
    /// Clocked cycles that ended in the current state and are not yet
    /// accounted.
    [[nodiscard]] std::uint64_t pending() const {
        return clock_ == nullptr ? 0 : clock_->cyclesDone() - accounted_;
    }

    const StreamChannel* channel_;
    const sim::Engine* clock_;
    std::uint64_t accounted_ = 0;  ///< first clocked cycle not yet accounted
    std::uint64_t samples_ = 0;
    std::uint64_t occupancySum_ = 0;
    std::uint64_t maxFrameBeats_ = 0;
    std::uint64_t maxObservedFrameBeats_ = 0;
};

} // namespace socgen::axi
