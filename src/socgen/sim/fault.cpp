#include "socgen/sim/fault.hpp"

#include <algorithm>
#include <sstream>

namespace socgen::sim {
namespace {

/// splitmix64: tiny, high-quality, and stable across platforms — the
/// whole point is that a seed replays the exact same fault schedule.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t bound) {
        return bound == 0 ? 0 : next() % bound;
    }

private:
    std::uint64_t state_;
};

} // namespace

bool FaultPlan::isFlowLevel(FaultKind kind) {
    switch (kind) {
    case FaultKind::BitstreamCorrupt:
    case FaultKind::HlsFailure:
    case FaultKind::FlowCrash:
    case FaultKind::ArtifactCorrupt:
    case FaultKind::StageHang:
        return true;
    default:
        return false;
    }
}

const char* toString(FaultKind kind) {
    switch (kind) {
    case FaultKind::StreamStall: return "stream-stall";
    case FaultKind::StreamResume: return "stream-resume";
    case FaultKind::IrqDrop: return "irq-drop";
    case FaultKind::IrqDelay: return "irq-delay";
    case FaultKind::DdrBitFlip: return "ddr-bit-flip";
    case FaultKind::DmaCorruptMm2s: return "dma-corrupt-mm2s";
    case FaultKind::DmaCorruptS2mm: return "dma-corrupt-s2mm";
    case FaultKind::DmaStall: return "dma-stall";
    case FaultKind::BitstreamCorrupt: return "bitstream-corrupt";
    case FaultKind::HlsFailure: return "hls-failure";
    case FaultKind::FlowCrash: return "flow-crash";
    case FaultKind::ArtifactCorrupt: return "artifact-corrupt";
    case FaultKind::StageHang: return "stage-hang";
    }
    return "unknown";
}

std::string FaultEvent::render() const {
    std::ostringstream os;
    os << toString(kind) << " @" << cycle;
    if (!target.empty()) {
        os << " target=" << target;
    }
    os << " a=" << a << " b=" << b;
    return os.str();
}

FaultPlan FaultPlan::randomPlan(std::uint64_t seed, const Space& space) {
    FaultPlan plan(seed);
    SplitMix64 rng(seed);

    // Collect the kinds this space can actually express.
    std::vector<FaultKind> kinds;
    if (!space.channels.empty()) {
        kinds.push_back(FaultKind::StreamStall);
    }
    if (!space.irqLines.empty()) {
        kinds.push_back(FaultKind::IrqDrop);
    }
    if (space.ddrWords > 0) {
        kinds.push_back(FaultKind::DdrBitFlip);
    }
    if (!space.dmas.empty()) {
        kinds.push_back(FaultKind::DmaCorruptMm2s);
        kinds.push_back(FaultKind::DmaCorruptS2mm);
        kinds.push_back(FaultKind::DmaStall);
    }
    if (kinds.empty()) {
        return plan;
    }

    for (std::size_t i = 0; i < space.eventCount; ++i) {
        const FaultKind kind = kinds[rng.below(kinds.size())];
        const std::uint64_t cycle = 1 + rng.below(space.maxCycle);
        switch (kind) {
        case FaultKind::StreamStall:
            plan.stallStream(cycle, space.channels[rng.below(space.channels.size())],
                             1 + rng.below(256));
            break;
        case FaultKind::IrqDrop:
            plan.dropIrq(cycle, space.irqLines[rng.below(space.irqLines.size())]);
            break;
        case FaultKind::DdrBitFlip:
            plan.flipDdrBit(cycle, rng.below(space.ddrWords),
                            static_cast<unsigned>(rng.below(32)));
            break;
        case FaultKind::DmaCorruptMm2s:
            plan.corruptMm2s(cycle, space.dmas[rng.below(space.dmas.size())],
                             1 + rng.below(0xFFFFFFFFULL), 1 + rng.below(4));
            break;
        case FaultKind::DmaCorruptS2mm:
            plan.corruptS2mm(cycle, space.dmas[rng.below(space.dmas.size())],
                             1 + rng.below(0xFFFFFFFFULL), 1 + rng.below(4));
            break;
        case FaultKind::DmaStall:
            plan.stallDma(cycle, space.dmas[rng.below(space.dmas.size())],
                          1 + rng.below(512));
            break;
        default:
            break;
        }
    }
    return plan;
}

FaultPlan& FaultPlan::stallStream(std::uint64_t cycle, std::string channel,
                                  std::uint64_t cycles) {
    return add({FaultKind::StreamStall, cycle, std::move(channel), cycles, 0});
}

FaultPlan& FaultPlan::dropIrq(std::uint64_t cycle, std::string line, std::uint64_t edges) {
    return add({FaultKind::IrqDrop, cycle, std::move(line), edges, 0});
}

FaultPlan& FaultPlan::delayIrq(std::uint64_t cycle, std::string line, std::uint64_t cycles) {
    return add({FaultKind::IrqDelay, cycle, std::move(line), cycles, 0});
}

FaultPlan& FaultPlan::flipDdrBit(std::uint64_t cycle, std::uint64_t wordAddr, unsigned bit) {
    return add({FaultKind::DdrBitFlip, cycle, {}, wordAddr, bit});
}

FaultPlan& FaultPlan::corruptMm2s(std::uint64_t cycle, std::string dma,
                                  std::uint64_t xorMask, std::uint64_t words) {
    return add({FaultKind::DmaCorruptMm2s, cycle, std::move(dma), xorMask, words});
}

FaultPlan& FaultPlan::corruptS2mm(std::uint64_t cycle, std::string dma,
                                  std::uint64_t xorMask, std::uint64_t words) {
    return add({FaultKind::DmaCorruptS2mm, cycle, std::move(dma), xorMask, words});
}

FaultPlan& FaultPlan::stallDma(std::uint64_t cycle, std::string dma, std::uint64_t cycles) {
    return add({FaultKind::DmaStall, cycle, std::move(dma), cycles, 0});
}

FaultPlan& FaultPlan::corruptBitstream(std::size_t section, unsigned bit) {
    return add({FaultKind::BitstreamCorrupt, 0, {}, section, bit});
}

FaultPlan& FaultPlan::failHls(std::string kernel) {
    return add({FaultKind::HlsFailure, 0, std::move(kernel), 0, 0});
}

FaultPlan& FaultPlan::crashFlow(std::string stage, std::uint64_t phase) {
    return add({FaultKind::FlowCrash, 0, std::move(stage), phase, 0});
}

FaultPlan& FaultPlan::corruptArtifact(std::string kernel) {
    return add({FaultKind::ArtifactCorrupt, 0, std::move(kernel), 0, 0});
}

FaultPlan& FaultPlan::hangStage(std::string stage, std::uint64_t milliseconds) {
    return add({FaultKind::StageHang, 0, std::move(stage), milliseconds, 0});
}

FaultPlan& FaultPlan::add(FaultEvent event) {
    events_.push_back(std::move(event));
    return *this;
}

std::vector<FaultEvent> FaultPlan::eventsOfKind(FaultKind kind) const {
    std::vector<FaultEvent> out;
    for (const auto& e : events_) {
        if (e.kind == kind) {
            out.push_back(e);
        }
    }
    return out;
}

std::string FaultPlan::render() const {
    std::ostringstream os;
    os << "fault plan (seed " << seed_ << ", " << events_.size() << " events)";
    for (const auto& e : events_) {
        os << "\n  " << e.render();
    }
    return os.str();
}

FaultInjector::FaultInjector(FaultPlan plan) {
    setPlan(std::move(plan));
}

void FaultInjector::setPlan(FaultPlan plan) {
    plan_ = std::move(plan);
    cursor_ = 0;
    // Cycle-level events fire in cycle order regardless of plan order.
    pending_.clear();
    for (const auto& e : plan_.events()) {
        if (!FaultPlan::isFlowLevel(e.kind)) {
            pending_.push_back(e);
        }
    }
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const FaultEvent& lhs, const FaultEvent& rhs) {
                         return lhs.cycle < rhs.cycle;
                     });
}

void FaultInjector::onFault(FaultKind kind, Handler handler) {
    handlers_[kind] = std::move(handler);
}

void FaultInjector::attach(Engine& engine) {
    engine_ = &engine;
    engine.addProbe(*this);
}

void FaultInjector::sample(std::uint64_t cycles) {
    pump(engine_->now() + cycles - 1);
}

std::uint64_t FaultInjector::horizon() const {
    if (cursor_ >= pending_.size()) {
        return kUnbounded;
    }
    const std::uint64_t due = pending_[cursor_].cycle;
    return due > engine_->now() ? due - engine_->now() : 0;
}

void FaultInjector::schedule(FaultEvent event) {
    // Insert keeping cycle order beyond the cursor.
    auto it = std::upper_bound(pending_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                               pending_.end(), event,
                               [](const FaultEvent& lhs, const FaultEvent& rhs) {
                                   return lhs.cycle < rhs.cycle;
                               });
    pending_.insert(it, std::move(event));
}

void FaultInjector::pump(std::uint64_t cycle) {
    while (cursor_ < pending_.size() && pending_[cursor_].cycle <= cycle) {
        const FaultEvent event = pending_[cursor_];
        ++cursor_;
        auto it = handlers_.find(event.kind);
        if (it == handlers_.end() || !it->second) {
            unhandled_.push_back(event);
            continue;
        }
        it->second(event);
        fired_.push_back(event);
    }
}

std::string FaultInjector::log() const {
    std::ostringstream os;
    os << "fired " << fired_.size() << " fault(s)";
    for (const auto& e : fired_) {
        os << "\n  " << e.render();
    }
    if (!unhandled_.empty()) {
        os << "\nunhandled " << unhandled_.size() << " fault(s)";
        for (const auto& e : unhandled_) {
            os << "\n  " << e.render();
        }
    }
    return os.str();
}

} // namespace socgen::sim
