#pragma once

#include <cstdint>
#include <deque>
#include <string>

namespace socgen::axi {

/// One AXI-Stream beat: TDATA plus TLAST framing.
struct StreamBeat {
    std::uint64_t data = 0;
    bool last = false;
};

/// Transaction-level model of an AXI4-Stream channel with a bounded FIFO
/// standing in for the skid/FIFO stages of a real interconnect. Producers
/// call tryPush (TVALID && TREADY), consumers tryPop. Capacity models the
/// ready/valid back-pressure that lets stream-connected cores overlap
/// computation and communication (paper Section II-B).
class StreamChannel {
public:
    explicit StreamChannel(std::string name, std::size_t capacity = 16,
                           unsigned width = 32);

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] unsigned width() const { return width_; }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::size_t size() const { return fifo_.size(); }
    [[nodiscard]] bool empty() const { return fifo_.empty(); }
    [[nodiscard]] bool full() const { return fifo_.size() >= capacity_; }

    /// TVALID asserted by producer: accepted only when not full.
    bool tryPush(StreamBeat beat);
    bool tryPush(std::uint64_t data, bool last = false) {
        return tryPush(StreamBeat{data, last});
    }

    /// TREADY asserted by consumer: succeeds only when data is waiting.
    bool tryPop(StreamBeat& beat);

    /// Front beat without consuming (TDATA visible while TVALID high).
    [[nodiscard]] const StreamBeat& front() const;

    // -- fault hooks ---------------------------------------------------------
    // Fault injection forces the interconnect's ready low: a blocked
    // direction refuses the handshake (and counts the stall) until
    // unblocked, modeling a wedged skid buffer or clock-gated stage.
    void setPushBlocked(bool blocked) { pushBlocked_ = blocked; }
    void setPopBlocked(bool blocked) { popBlocked_ = blocked; }
    [[nodiscard]] bool pushBlocked() const { return pushBlocked_; }
    [[nodiscard]] bool popBlocked() const { return popBlocked_; }

    /// Protocol-violating push that ignores capacity and blocking — used
    /// by tests to provoke the monitor, never by well-behaved masters.
    void forcePush(StreamBeat beat);

    /// Drops the front beat without counting it as popped (beat loss).
    /// Returns false on an empty channel.
    bool dropFront();

    /// Credits `cycles` refused handshakes at once: what `cycles` failed
    /// tryPush / tryPop calls on an unchanged full / empty (or blocked)
    /// channel would count. Used when the engine skips a quiet span.
    void creditPushStalls(std::uint64_t cycles) { pushStalls_ += cycles; }
    void creditPopStalls(std::uint64_t cycles) { popStalls_ += cycles; }

    // -- statistics ----------------------------------------------------------
    [[nodiscard]] std::uint64_t beatsPushed() const { return pushed_; }
    [[nodiscard]] std::uint64_t beatsPopped() const { return popped_; }
    [[nodiscard]] std::uint64_t pushStalls() const { return pushStalls_; }
    [[nodiscard]] std::uint64_t popStalls() const { return popStalls_; }
    [[nodiscard]] std::size_t highWater() const { return highWater_; }

    /// Beats pushed since the most recent TLAST (0 right after a frame
    /// boundary); used by monitors to bound frame length.
    [[nodiscard]] std::uint64_t beatsSinceLastTlast() const { return beatsSinceTlast_; }
    [[nodiscard]] std::uint64_t framesCompleted() const { return framesCompleted_; }

    void reset();

private:
    std::string name_;
    std::size_t capacity_;
    unsigned width_;
    std::deque<StreamBeat> fifo_;
    std::uint64_t pushed_ = 0;
    std::uint64_t popped_ = 0;
    std::uint64_t pushStalls_ = 0;
    std::uint64_t popStalls_ = 0;
    std::size_t highWater_ = 0;
    std::uint64_t beatsSinceTlast_ = 0;
    std::uint64_t framesCompleted_ = 0;
    bool pushBlocked_ = false;
    bool popBlocked_ = false;
};

} // namespace socgen::axi
