#include "socgen/soc/dma.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>

namespace socgen::soc {

DmaEngine::DmaEngine(std::string name, Memory& memory, std::uint64_t wordsPerCycle)
    : name_(std::move(name)), memory_(memory), wordsPerCycle_(wordsPerCycle) {
    require(wordsPerCycle_ > 0, "dma words-per-cycle must be positive");
}

int DmaEngine::attachMm2s(axi::StreamChannel& channel) {
    mm2sDests_.push_back(&channel);
    return static_cast<int>(mm2sDests_.size() - 1);
}

int DmaEngine::attachS2mm(axi::StreamChannel& channel) {
    s2mmSrcs_.push_back(&channel);
    return static_cast<int>(s2mmSrcs_.size() - 1);
}

std::uint32_t DmaEngine::corruptValue(Corruption& c, std::uint32_t value) {
    // Derive a fresh, never-zero mask per application (golden-ratio mix)
    // so two back-to-back verification reads of a persistently faulty
    // port cannot be corrupted identically and slip past the compare.
    std::uint64_t z = c.mask ^ (c.applied * 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    const auto effective =
        static_cast<std::uint32_t>((z ^ (z >> 32)) | 1ULL);
    ++c.applied;
    --c.remaining;
    return value ^ effective;
}

std::uint32_t DmaEngine::hpRead(std::uint64_t wordAddress) {
    std::uint32_t value = memory_.readWord(wordAddress);
    if (mm2sCorrupt_.remaining > 0) {
        value = corruptValue(mm2sCorrupt_, value);
    }
    return value;
}

std::uint32_t DmaEngine::hpReadVerified(std::uint64_t wordAddress) {
    std::uint32_t first = hpRead(wordAddress);
    if (retryLimit_ == 0) {
        return first;
    }
    std::uint32_t second = hpRead(wordAddress);
    unsigned attempts = 0;
    while (first != second) {
        if (++attempts > retryLimit_) {
            throw SimulationError(format(
                "%s: MM2S read of word 0x%llx failed verification after %u retries",
                name_.c_str(), static_cast<unsigned long long>(wordAddress),
                retryLimit_));
        }
        ++verifyRetries_;
        first = hpRead(wordAddress);
        second = hpRead(wordAddress);
    }
    return first;
}

void DmaEngine::hpWriteVerified(std::uint64_t wordAddress, std::uint32_t value) {
    std::uint32_t out = value;
    if (s2mmCorrupt_.remaining > 0) {
        out = corruptValue(s2mmCorrupt_, out);
    }
    memory_.writeWord(wordAddress, out);
    if (retryLimit_ == 0) {
        return;
    }
    unsigned attempts = 0;
    while (memory_.readWord(wordAddress) != value) {
        if (++attempts > retryLimit_) {
            throw SimulationError(format(
                "%s: S2MM write of word 0x%llx failed verification after %u retries",
                name_.c_str(), static_cast<unsigned long long>(wordAddress),
                retryLimit_));
        }
        ++verifyRetries_;
        out = value;
        if (s2mmCorrupt_.remaining > 0) {
            out = corruptValue(s2mmCorrupt_, out);
        }
        memory_.writeWord(wordAddress, out);
    }
}

void DmaEngine::injectMm2sCorruption(std::uint64_t xorMask, std::uint64_t words) {
    mm2sCorrupt_.mask = xorMask;
    mm2sCorrupt_.remaining += words;
}

void DmaEngine::injectS2mmCorruption(std::uint64_t xorMask, std::uint64_t words) {
    s2mmCorrupt_.mask = xorMask;
    s2mmCorrupt_.remaining += words;
}

bool DmaEngine::tickMm2s() {
    if (!mm2s_.active) {
        return false;
    }
    auto& dest = *mm2sDests_.at(mm2s_.route);
    bool moved = false;
    for (std::uint64_t i = 0; i < wordsPerCycle_ && mm2s_.remaining > 0; ++i) {
        if (dest.full() || dest.pushBlocked()) {
            break;  // back-pressure: don't consume a verified read
        }
        const std::uint32_t word = hpReadVerified(mm2s_.address);
        const bool last = mm2s_.remaining == 1;
        if (!dest.tryPush(word, last)) {
            break;  // back-pressure
        }
        ++mm2s_.address;
        --mm2s_.remaining;
        ++wordsMoved_;
        moved = true;
    }
    if (mm2s_.remaining == 0) {
        mm2s_.active = false;
        ++transfers_;
        if (mm2sIrq_ != nullptr) {
            mm2sIrq_->raise();
        }
    }
    return moved;
}

bool DmaEngine::tickS2mm() {
    if (!s2mm_.active) {
        return false;
    }
    auto& src = *s2mmSrcs_.at(s2mm_.route);
    bool moved = false;
    for (std::uint64_t i = 0; i < wordsPerCycle_ && s2mm_.remaining > 0; ++i) {
        axi::StreamBeat beat;
        if (!src.tryPop(beat)) {
            break;
        }
        hpWriteVerified(s2mm_.address, static_cast<std::uint32_t>(beat.data));
        ++s2mm_.address;
        --s2mm_.remaining;
        ++wordsMoved_;
        moved = true;
    }
    if (s2mm_.remaining == 0) {
        s2mm_.active = false;
        ++transfers_;
        if (s2mmIrq_ != nullptr) {
            s2mmIrq_->raise();
        }
    }
    return moved;
}

bool DmaEngine::tick() {
    if (stallRemaining_ > 0) {
        --stallRemaining_;
        return false;  // descriptors frozen: no progress this cycle
    }
    const bool a = tickMm2s();
    const bool b = tickS2mm();
    return a || b;
}

std::uint64_t DmaEngine::quietFor() const {
    if (idle()) {
        return sim::kUnbounded;  // a tick at most counts down a stall
    }
    const bool mm2sHeld = !mm2s_.active || mm2sDests_[mm2s_.route]->full() ||
                          mm2sDests_[mm2s_.route]->pushBlocked();
    const bool s2mmHeld = !s2mm_.active || s2mmSrcs_[s2mm_.route]->empty() ||
                          s2mmSrcs_[s2mm_.route]->popBlocked();
    return mm2sHeld && s2mmHeld ? sim::kUnbounded : stallRemaining_;
}

bool DmaEngine::skip(std::uint64_t cycles) {
    const std::uint64_t frozen = std::min(cycles, stallRemaining_);
    stallRemaining_ -= frozen;
    // A held-off MM2S checks before it reads, so only S2MM's failed pop
    // counts a stall.
    if (cycles > frozen && s2mm_.active) {
        s2mmSrcs_[s2mm_.route]->creditPopStalls(cycles - frozen);
    }
    return false;
}

bool DmaEngine::idle() const {
    return !mm2s_.active && !s2mm_.active;
}

std::string DmaEngine::debugState() const {
    std::string state;
    if (stallRemaining_ > 0) {
        state += format("stalled for %llu more cycles",
                        static_cast<unsigned long long>(stallRemaining_));
    }
    if (mm2s_.active) {
        if (!state.empty()) {
            state += "; ";
        }
        state += format("MM2S %llu words left at 0x%llx (route %u)",
                        static_cast<unsigned long long>(mm2s_.remaining),
                        static_cast<unsigned long long>(mm2s_.address), mm2s_.route);
    }
    if (s2mm_.active) {
        if (!state.empty()) {
            state += "; ";
        }
        state += format("S2MM %llu words left at 0x%llx (route %u)",
                        static_cast<unsigned long long>(s2mm_.remaining),
                        static_cast<unsigned long long>(s2mm_.address), s2mm_.route);
    }
    return state;
}

std::uint32_t DmaEngine::readRegister(std::uint64_t offset) {
    switch (offset) {
    case dmareg::kMm2sCtrl: return 0;
    case dmareg::kMm2sStatus: return mm2s_.active ? 0 : dmareg::kStatusIdle;
    case dmareg::kMm2sAddr: return static_cast<std::uint32_t>(mm2s_.address);
    case dmareg::kMm2sLength: return static_cast<std::uint32_t>(mm2s_.remaining);
    case dmareg::kMm2sRoute: return mm2s_.route;
    case dmareg::kS2mmCtrl: return 0;
    case dmareg::kS2mmStatus: return s2mm_.active ? 0 : dmareg::kStatusIdle;
    case dmareg::kS2mmAddr: return static_cast<std::uint32_t>(s2mm_.address);
    case dmareg::kS2mmLength: return static_cast<std::uint32_t>(s2mm_.remaining);
    case dmareg::kS2mmRoute: return s2mm_.route;
    default:
        throw SimulationError(format("%s: read of unknown register 0x%llx", name_.c_str(),
                                     static_cast<unsigned long long>(offset)));
    }
}

void DmaEngine::writeRegister(std::uint64_t offset, std::uint32_t value) {
    switch (offset) {
    case dmareg::kMm2sCtrl:
        break;  // run/stop is implicit in this simple-mode model
    case dmareg::kMm2sAddr:
        mm2s_.address = value;
        break;
    case dmareg::kMm2sRoute:
        if (value >= mm2sDests_.size()) {
            throw SimulationError(format("%s: MM2S route %u out of range (%zu attached)",
                                         name_.c_str(), value, mm2sDests_.size()));
        }
        mm2s_.route = value;
        break;
    case dmareg::kMm2sLength:
        if (mm2s_.active) {
            throw SimulationError(name_ + ": MM2S transfer started while busy");
        }
        if (mm2sDests_.empty()) {
            throw SimulationError(name_ + ": MM2S started with no attached stream");
        }
        mm2s_.remaining = value;
        mm2s_.active = value > 0;
        break;
    case dmareg::kS2mmCtrl:
        break;
    case dmareg::kS2mmAddr:
        s2mm_.address = value;
        break;
    case dmareg::kS2mmRoute:
        if (value >= s2mmSrcs_.size()) {
            throw SimulationError(format("%s: S2MM route %u out of range (%zu attached)",
                                         name_.c_str(), value, s2mmSrcs_.size()));
        }
        s2mm_.route = value;
        break;
    case dmareg::kS2mmLength:
        if (s2mm_.active) {
            throw SimulationError(name_ + ": S2MM transfer started while busy");
        }
        if (s2mmSrcs_.empty()) {
            throw SimulationError(name_ + ": S2MM started with no attached stream");
        }
        s2mm_.remaining = value;
        s2mm_.active = value > 0;
        break;
    default:
        throw SimulationError(format("%s: write of unknown register 0x%llx", name_.c_str(),
                                     static_cast<unsigned long long>(offset)));
    }
}

} // namespace socgen::soc
