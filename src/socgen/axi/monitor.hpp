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
/// channel with the engine as its clock: before each change the channel
/// has it account the cycles since the last change with the state they
/// ended in, so a cycle costs nothing unless a beat moves. Without a
/// clock, sample() accounts cycles by hand.
class StreamMonitor {
public:
    explicit StreamMonitor(StreamChannel& channel, const sim::Engine* clock = nullptr);

    /// Accounts `cycles` cycles that ended in the channel's current state
    /// (by hand without a clock; the channel calls it with one).
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

    /// Corrects the accounted cycles for the beats the channel's debtor
    /// moved earlier than the channel applied them (DESIGN.md §16): pushes
    /// that add a beat to `added` accounted cycles in all, pops that take
    /// one from `removed`, and an open frame of `openFrame` beats at the end
    /// of the last accounted cycle they reach.
    void backdate(std::uint64_t added, std::uint64_t removed, std::uint64_t openFrame) {
        occupancySum_ = occupancySum_ + added - removed;
        maxObservedFrameBeats_ = std::max(maxObservedFrameBeats_, openFrame);
    }

    [[nodiscard]] double averageOccupancy() const;
    [[nodiscard]] std::uint64_t samples() const { return samples_ + pending(); }
    [[nodiscard]] const StreamChannel& channel() const { return *channel_; }

private:
    /// Clocked cycles that ended in the current state and are not yet
    /// accounted.
    [[nodiscard]] std::uint64_t pending() const {
        return clocked_ ? channel_->unaccounted() : 0;
    }

    const StreamChannel* channel_;
    bool clocked_;
    std::uint64_t samples_ = 0;
    std::uint64_t occupancySum_ = 0;
    std::uint64_t maxFrameBeats_ = 0;
    std::uint64_t maxObservedFrameBeats_ = 0;
};

} // namespace socgen::axi
