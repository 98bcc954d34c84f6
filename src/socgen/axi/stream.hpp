#pragma once

#include "socgen/sim/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace socgen::axi {

class StreamMonitor;

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
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] bool full() const { return count_ >= capacity_; }

    /// TVALID asserted by producer: accepted only when not full.
    bool tryPush(StreamBeat beat) {
        if (count_ >= capacity_ || pushBlocked_) {
            ++pushStalls_;
            return false;
        }
        if (parkedReader_ != nullptr || !monitorCurrent()) {
            pushSlow(beat);
            return true;
        }
        put(beat);
        highWater_ = std::max(highWater_, count_);
        return true;
    }
    bool tryPush(std::uint64_t data, bool last = false) {
        return tryPush(StreamBeat{data, last});
    }

    /// TREADY asserted by consumer: succeeds only when data is waiting.
    bool tryPop(StreamBeat& beat) {
        if (count_ == 0 || popBlocked_) {
            ++popStalls_;
            return false;
        }
        if (parkedWriter_ != nullptr || !monitorCurrent()) {
            popSlow(beat);
            return true;
        }
        beat = take();
        return true;
    }

    /// Front beat without consuming (TDATA visible while TVALID high).
    [[nodiscard]] const StreamBeat& front() const;

    // -- fault hooks ---------------------------------------------------------
    // Fault injection forces the interconnect's ready low: a blocked
    // direction refuses the handshake (and counts the stall) until
    // unblocked, modeling a wedged skid buffer or clock-gated stage.
    // Lifting a block wakes the component parked on that direction.
    void setPushBlocked(bool blocked);
    void setPopBlocked(bool blocked);
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
    /// channel would count. Used when a stalled component wakes.
    void creditPushStalls(std::uint64_t cycles) { pushStalls_ += cycles; }
    void creditPopStalls(std::uint64_t cycles) { popStalls_ += cycles; }

    // -- wake hooks (DESIGN.md §16) -------------------------------------------
    /// Parks a reader asleep on this channel: the next push (or lifting a
    /// pop block) wakes it. A writer parks to be woken by the next pop (or
    /// lifting a push block). One component per direction; parking another
    /// wakes the one parked before.
    void parkReader(sim::Component& reader);
    void parkWriter(sim::Component& writer);

    // -- owed moves (DESIGN.md §16) -------------------------------------------
    /// Parks `writer` asleep on this unblocked channel, which holds at least
    /// one beat, as a debtor: it owes a push for each free slot, and each
    /// pop from now on is logged with the cycle the writer's answering push
    /// falls on (Component::nextTurn()) instead of waking it. The writer is
    /// woken by the pop that empties the channel, by the `wakeAfter`-th
    /// logged pop, and by every other call that changes or shows the
    /// contents (block changes, forcePush, dropFront, front, reset), so
    /// the reader never sees the channel differ from per-cycle stepping.
    void parkOwingWriter(sim::Component& writer, std::uint64_t wakeAfter);
    /// The same for a reader parked on an unblocked channel with a free
    /// slot: it owes a pop for each stored beat and each push, and the
    /// push that fills the channel or is the `wakeAfter`-th wakes it.
    void parkOwingReader(sim::Component& reader, std::uint64_t wakeAfter);
    /// Called by a woken debtor: it owes nothing any more, and the returned
    /// due cycles (oldest first, valid until it parks again) tell which
    /// moves it now makes with replayPush / replayPop, in cycle order,
    /// before it calls endReplay().
    [[nodiscard]] const std::vector<std::uint64_t>& endDebt();
    /// An owed push or pop made now but counted at cycle `at`: the counters
    /// end as if it had been made then, the monitor at endReplay().
    void replayPush(StreamBeat beat, std::uint64_t at) {
        for (; replayed_ < debts_.size() && debts_[replayed_] <= at; ++replayed_) {
            --level_;  // the reader's pops made before this push
        }
        put(beat);
        highWater_ = std::max(highWater_, ++level_);
        if (at < accounted_) {
            lateIn_ += accounted_ - at;
            lateFrame_ = beatsSinceTlast_;
        }
    }
    [[nodiscard]] StreamBeat replayPop(std::uint64_t at) {
        for (; replayed_ < debts_.size() && debts_[replayed_] <= at; ++replayed_) {
            highWater_ = std::max(highWater_, ++level_);  // the writer's pushes before
        }
        --level_;
        if (at < accounted_) {
            lateOut_ += accounted_ - at;
        }
        return take();
    }
    /// Ends a replay: the monitor's accounted cycles take the replayed
    /// moves, and the high-water mark the pushes left for the debtor's next
    /// real turn.
    void endReplay();

    /// Attaches the monitor told before every change of the contents,
    /// accounting by `clock`.
    void setMonitor(StreamMonitor* monitor, const sim::Engine& clock);

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
    friend class StreamMonitor;

    enum class Debtor : std::uint8_t { None, Writer, Reader };

    /// True when no monitor is attached or it has accounted every cycle
    /// the clock has done.
    [[nodiscard]] bool monitorCurrent() const {
        return monitor_ == nullptr || clock_->cyclesDone() == accounted_;
    }
    /// Has the monitor account the cycles since the last change, which
    /// ended in the current state, before the state changes.
    void syncMonitor();
    /// Clocked cycles that ended in the current state and the monitor has
    /// not accounted yet.
    [[nodiscard]] std::uint64_t unaccounted() const {
        return monitor_ == nullptr ? 0 : clock_->cyclesDone() - accounted_;
    }
    /// tryPush / tryPop past the checks, when a component is parked on the
    /// other end or the monitor has cycles to account.
    void pushSlow(StreamBeat beat);
    void popSlow(StreamBeat& beat);
    /// Makes the component just parked on the `debtor` end owe moves.
    void startDebt(Debtor debtor, std::uint64_t wakeAfter);
    /// Wakes the debtor, if any, so that it makes the moves it owes.
    void settleDebtor() const;

    /// Stores `beat` behind the last one; the ring has room.
    void put(StreamBeat beat) {
        beat.data &= mask_;
        std::size_t slot = head_ + count_;
        if (slot >= ring_.size()) {
            slot -= ring_.size();
        }
        ring_[slot] = beat;
        ++count_;
        ++pushed_;
        if (beat.last) {
            ++framesCompleted_;
            beatsSinceTlast_ = 0;
        } else {
            ++beatsSinceTlast_;
        }
    }
    /// Removes the front beat, counting it as popped.
    StreamBeat take() {
        const StreamBeat beat = ring_[head_];
        removeFront();
        ++popped_;
        return beat;
    }
    void removeFront() {
        if (++head_ == ring_.size()) {
            head_ = 0;
        }
        --count_;
    }
    void grow();

    std::string name_;
    std::size_t capacity_;
    unsigned width_;
    std::uint64_t mask_;            ///< TDATA bits the channel carries
    std::vector<StreamBeat> ring_;  ///< FIFO storage, `capacity_` slots
    std::size_t head_ = 0;          ///< slot of the front beat
    std::size_t count_ = 0;
    std::uint64_t pushed_ = 0;
    std::uint64_t popped_ = 0;
    std::uint64_t pushStalls_ = 0;
    std::uint64_t popStalls_ = 0;
    std::size_t highWater_ = 0;
    std::uint64_t beatsSinceTlast_ = 0;
    std::uint64_t framesCompleted_ = 0;
    bool pushBlocked_ = false;
    bool popBlocked_ = false;
    sim::Component* parkedReader_ = nullptr;
    sim::Component* parkedWriter_ = nullptr;
    Debtor debtor_ = Debtor::None;  ///< which parked component owes moves
    std::uint64_t wakeAfter_ = 0;   ///< logged moves that wake the debtor
    std::vector<std::uint64_t> debts_;  ///< due cycle of each owed move
    std::size_t replayed_ = 0;      ///< logged moves a replay has reached
    std::size_t level_ = 0;         ///< occupancy as per-cycle stepping has it, in a replay
    std::uint64_t lateIn_ = 0;      ///< accounted cycles the replayed pushes add a beat to
    std::uint64_t lateOut_ = 0;     ///< accounted cycles the replayed pops take a beat from
    std::uint64_t lateFrame_ = 0;   ///< open frame after the last accounted replayed push
    StreamMonitor* monitor_ = nullptr;
    const sim::Engine* clock_ = nullptr;
    std::uint64_t accounted_ = 0;   ///< first clocked cycle the monitor has not accounted
};

} // namespace socgen::axi
