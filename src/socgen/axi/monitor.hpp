#pragma once

#include "socgen/axi/stream.hpp"
#include "socgen/sim/engine.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace socgen::axi {

/// Protocol monitor for a StreamChannel: records occupancy for every
/// simulated cycle and checks conservation invariants (pushed == popped +
/// in-flight, no beat loss/duplication). SystemSimulator registers one
/// per channel as an engine probe; a quiet span, in which no beat moves,
/// is credited as `cycles` samples of the unchanged occupancy.
class StreamMonitor final : public sim::Probe {
public:
    explicit StreamMonitor(const StreamChannel& channel) : channel_(&channel) {}

    /// Samples the channel for `cycles` cycles of unchanged state.
    void sample(std::uint64_t cycles = 1) override;

    /// Throws SimulationError if an invariant is violated.
    void check() const;

    /// Bounds frame length: check() fails if more than `beats` beats are
    /// ever pushed without a TLAST (a master that never closes a frame
    /// starves TLAST-gated consumers). 0 disables the check.
    void setMaxFrameBeats(std::uint64_t beats) { maxFrameBeats_ = beats; }

    [[nodiscard]] double averageOccupancy() const;
    [[nodiscard]] std::uint64_t samples() const { return samples_; }
    [[nodiscard]] const StreamChannel& channel() const { return *channel_; }

private:
    const StreamChannel* channel_;
    std::uint64_t samples_ = 0;
    std::uint64_t occupancySum_ = 0;
    std::uint64_t maxFrameBeats_ = 0;
    std::uint64_t maxObservedFrameBeats_ = 0;
};

} // namespace socgen::axi
