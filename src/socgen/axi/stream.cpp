#include "socgen/axi/stream.hpp"

#include "socgen/axi/monitor.hpp"
#include "socgen/common/error.hpp"

#include <utility>

namespace socgen::axi {

StreamChannel::StreamChannel(std::string name, std::size_t capacity, unsigned width)
    : name_(std::move(name)),
      capacity_(capacity),
      width_(width),
      mask_(width < 64 ? (1ULL << width) - 1ULL : ~0ULL) {
    if (capacity_ == 0) {
        throw Error("stream channel capacity must be positive: " + name_);
    }
    ring_.resize(capacity_);
}

namespace {

void park(sim::Component*& slot, sim::Component& component) {
    if (slot != nullptr && slot != &component) {
        slot->wake();
    }
    slot = &component;
}

void unpark(sim::Component*& slot) {
    if (slot != nullptr) {
        std::exchange(slot, nullptr)->wake();
    }
}

} // namespace

void StreamChannel::parkReader(sim::Component& reader) {
    park(parkedReader_, reader);
}

void StreamChannel::parkWriter(sim::Component& writer) {
    park(parkedWriter_, writer);
}

void StreamChannel::parkOwingWriter(sim::Component& writer, std::uint64_t wakeAfter) {
    park(parkedWriter_, writer);
    startDebt(Debtor::Writer, wakeAfter);
}

void StreamChannel::parkOwingReader(sim::Component& reader, std::uint64_t wakeAfter) {
    park(parkedReader_, reader);
    startDebt(Debtor::Reader, wakeAfter);
}

void StreamChannel::startDebt(Debtor debtor, std::uint64_t wakeAfter) {
    debtor_ = debtor;
    wakeAfter_ = wakeAfter;
    debts_.clear();
    replayed_ = 0;
    level_ = count_;
}

const std::vector<std::uint64_t>& StreamChannel::endDebt() {
    syncMonitor();  // the replay's moves are then late for every accounted cycle
    (debtor_ == Debtor::Writer ? parkedWriter_ : parkedReader_) = nullptr;
    debtor_ = Debtor::None;
    return debts_;
}

void StreamChannel::settleDebtor() const {
    if (debtor_ != Debtor::None) {
        (debtor_ == Debtor::Writer ? parkedWriter_ : parkedReader_)->wake();
    }
}

void StreamChannel::setPushBlocked(bool blocked) {
    settleDebtor();
    if (!blocked) {
        unpark(parkedWriter_);
    }
    pushBlocked_ = blocked;
}

void StreamChannel::setPopBlocked(bool blocked) {
    settleDebtor();
    if (!blocked) {
        unpark(parkedReader_);
    }
    popBlocked_ = blocked;
}

void StreamChannel::setMonitor(StreamMonitor* monitor, const sim::Engine& clock) {
    monitor_ = monitor;
    clock_ = &clock;
    accounted_ = clock.cyclesDone();
}

void StreamChannel::syncMonitor() {
    if (const std::uint64_t cycles = unaccounted(); cycles > 0) {
        monitor_->sample(cycles);
        accounted_ += cycles;
    }
}

void StreamChannel::grow() {
    std::vector<StreamBeat> grown(ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_ = std::move(grown);
    head_ = 0;
}

void StreamChannel::pushSlow(StreamBeat beat) {
    syncMonitor();
    if (debtor_ == Debtor::Reader) {
        // The reader owes this beat's pop; per-cycle occupancy, and so the
        // high-water mark, is known when it replays.
        put(beat);
        debts_.push_back(parkedReader_->nextTurn());
        if (count_ >= capacity_ || debts_.size() >= wakeAfter_) {
            parkedReader_->wake();
        }
        return;
    }
    unpark(parkedReader_);
    put(beat);
    highWater_ = std::max(highWater_, count_);
}

void StreamChannel::popSlow(StreamBeat& beat) {
    syncMonitor();
    if (debtor_ == Debtor::Writer) {
        beat = take();
        debts_.push_back(parkedWriter_->nextTurn());
        if (count_ == 0 || debts_.size() >= wakeAfter_) {
            parkedWriter_->wake();
        }
        return;
    }
    unpark(parkedWriter_);
    beat = take();
}

void StreamChannel::endReplay() {
    highWater_ = std::max(highWater_, count_);
    if (monitor_ != nullptr) {
        monitor_->backdate(lateIn_, lateOut_, lateFrame_);
    }
    lateIn_ = lateOut_ = lateFrame_ = 0;
}

void StreamChannel::forcePush(StreamBeat beat) {
    settleDebtor();
    syncMonitor();
    unpark(parkedReader_);
    if (count_ == ring_.size()) {
        grow();  // only a protocol-violating forcePush overfills the FIFO
    }
    put(beat);
    highWater_ = std::max(highWater_, count_);
}

bool StreamChannel::dropFront() {
    settleDebtor();
    if (empty()) {
        return false;
    }
    syncMonitor();
    unpark(parkedWriter_);
    removeFront();
    return true;
}

const StreamBeat& StreamChannel::front() const {
    settleDebtor();
    if (empty()) {
        throw Error("front() on empty stream channel " + name_);
    }
    return ring_[head_];
}

void StreamChannel::reset() {
    settleDebtor();
    syncMonitor();
    unpark(parkedReader_);
    unpark(parkedWriter_);
    head_ = count_ = 0;
    pushed_ = popped_ = pushStalls_ = popStalls_ = 0;
    highWater_ = 0;
    beatsSinceTlast_ = framesCompleted_ = 0;
    pushBlocked_ = popBlocked_ = false;
}

} // namespace socgen::axi
