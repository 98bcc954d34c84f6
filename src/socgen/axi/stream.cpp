#include "socgen/axi/stream.hpp"

#include "socgen/axi/monitor.hpp"
#include "socgen/common/error.hpp"
#include "socgen/sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace socgen::axi {

StreamChannel::StreamChannel(std::string name, std::size_t capacity, unsigned width)
    : name_(std::move(name)), capacity_(capacity), width_(width) {
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

void StreamChannel::setPushBlocked(bool blocked) {
    if (!blocked) {
        unpark(parkedWriter_);
    }
    pushBlocked_ = blocked;
}

void StreamChannel::setPopBlocked(bool blocked) {
    if (!blocked) {
        unpark(parkedReader_);
    }
    popBlocked_ = blocked;
}

void StreamChannel::changing(sim::Component*& waiter) {
    if (monitor_ != nullptr) {
        monitor_->beforeChange();
    }
    unpark(waiter);
}

void StreamChannel::grow() {
    std::vector<StreamBeat> grown(ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_ = std::move(grown);
    head_ = 0;
}

void StreamChannel::append(StreamBeat beat) {
    if (width_ < 64) {
        beat.data &= (1ULL << width_) - 1ULL;
    }
    if (count_ == ring_.size()) {
        grow();  // only a protocol-violating forcePush overfills the FIFO
    }
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
    highWater_ = std::max(highWater_, count_);
}

void StreamChannel::removeFront() {
    if (++head_ == ring_.size()) {
        head_ = 0;
    }
    --count_;
}

bool StreamChannel::tryPush(StreamBeat beat) {
    if (full() || pushBlocked_) {
        ++pushStalls_;
        return false;
    }
    changing(parkedReader_);
    append(beat);
    return true;
}

bool StreamChannel::tryPop(StreamBeat& beat) {
    if (empty() || popBlocked_) {
        ++popStalls_;
        return false;
    }
    changing(parkedWriter_);
    beat = ring_[head_];
    removeFront();
    ++popped_;
    return true;
}

void StreamChannel::forcePush(StreamBeat beat) {
    changing(parkedReader_);
    append(beat);
}

bool StreamChannel::dropFront() {
    if (empty()) {
        return false;
    }
    changing(parkedWriter_);
    removeFront();
    return true;
}

const StreamBeat& StreamChannel::front() const {
    if (empty()) {
        throw Error("front() on empty stream channel " + name_);
    }
    return ring_[head_];
}

void StreamChannel::reset() {
    changing(parkedReader_);
    unpark(parkedWriter_);
    head_ = count_ = 0;
    pushed_ = popped_ = pushStalls_ = popStalls_ = 0;
    highWater_ = 0;
    beatsSinceTlast_ = framesCompleted_ = 0;
    pushBlocked_ = popBlocked_ = false;
}

} // namespace socgen::axi
