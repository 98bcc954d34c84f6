#pragma once

#include "socgen/sim/engine.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace socgen::sim {

/// Kinds of faults the injector knows how to schedule. Cycle-level kinds
/// are fired by the injector at their cycle (it is an engine probe whose
/// horizon ends at the next due event, so no jump of the clock skips one).
/// Flow-level kinds (BitstreamCorrupt, HlsFailure) are consumed by the
/// harness before the simulation starts (via FaultPlan::eventsOfKind)
/// because they strike tool phases, not clocked hardware.
enum class FaultKind {
    StreamStall,      ///< block channel `target` push+pop for `a` cycles
    StreamResume,     ///< internal: unblock channel `target`
    IrqDrop,          ///< swallow the next `a` raise() edges on line `target`
    IrqDelay,         ///< delay the next raise() on line `target` by `a` cycles
    DdrBitFlip,       ///< flip bit `b` of DDR word address `a`
    DmaCorruptMm2s,   ///< XOR the next `b` MM2S reads of dma `target` with `a`
    DmaCorruptS2mm,   ///< XOR the next `b` S2MM writes of dma `target` with `a`
    DmaStall,         ///< freeze dma `target` descriptors for `a` cycles
    BitstreamCorrupt, ///< flip bit `b` of section `a` of the bitstream payload
    HlsFailure,       ///< fail HLS for kernel `target` (flow-level)
    FlowCrash,        ///< kill the flow at stage `target`; `a`: 0 = at stage
                      ///< begin (after the begin journal record), 1 = pre-commit
                      ///< (work done, commit record not yet written)
    ArtifactCorrupt,  ///< corrupt the stored artifact of kernel `target` after
                      ///< it is written (flow-level; next load must detect it)
    StageHang,        ///< stage `target` hangs for `a` host-milliseconds on its
                      ///< first execution (one-shot; exercises the deadline)
};

[[nodiscard]] const char* toString(FaultKind kind);

/// One scheduled fault. `cycle` is the simulation cycle at which the
/// injector fires it (ignored for flow-level kinds). `target` names the
/// victim (channel, IRQ line, DMA instance, kernel); `a`/`b` are
/// kind-specific operands documented on FaultKind.
struct FaultEvent {
    FaultKind kind = FaultKind::StreamStall;
    std::uint64_t cycle = 0;
    std::string target;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    [[nodiscard]] std::string render() const;
};

/// A deterministic, ordered schedule of fault events. Plans built from
/// the same seed (randomPlan) or the same builder calls are identical,
/// so a failing sweep iteration can be replayed exactly.
class FaultPlan {
public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

    /// Names the resources a random plan may target.
    struct Space {
        std::vector<std::string> channels;
        std::vector<std::string> irqLines;
        std::vector<std::string> dmas;
        std::vector<std::string> kernels;
        std::uint64_t maxCycle = 10'000;
        std::uint64_t ddrWords = 0; ///< 0 disables DdrBitFlip events
        std::size_t eventCount = 4;
    };

    /// Builds a seed-deterministic plan over `space` (splitmix64 PRNG).
    [[nodiscard]] static FaultPlan randomPlan(std::uint64_t seed, const Space& space);

    FaultPlan& stallStream(std::uint64_t cycle, std::string channel, std::uint64_t cycles);
    FaultPlan& dropIrq(std::uint64_t cycle, std::string line, std::uint64_t edges = 1);
    FaultPlan& delayIrq(std::uint64_t cycle, std::string line, std::uint64_t cycles);
    FaultPlan& flipDdrBit(std::uint64_t cycle, std::uint64_t wordAddr, unsigned bit);
    FaultPlan& corruptMm2s(std::uint64_t cycle, std::string dma, std::uint64_t xorMask,
                           std::uint64_t words = 1);
    FaultPlan& corruptS2mm(std::uint64_t cycle, std::string dma, std::uint64_t xorMask,
                           std::uint64_t words = 1);
    FaultPlan& stallDma(std::uint64_t cycle, std::string dma, std::uint64_t cycles);
    FaultPlan& corruptBitstream(std::size_t section, unsigned bit);
    FaultPlan& failHls(std::string kernel);
    /// `phase`: 0 = crash at stage begin, 1 = crash pre-commit.
    FaultPlan& crashFlow(std::string stage, std::uint64_t phase = 0);
    FaultPlan& corruptArtifact(std::string kernel);
    FaultPlan& hangStage(std::string stage, std::uint64_t milliseconds);

    /// True for kinds consumed by the tool flow rather than the cycle
    /// simulator (they strike tool phases, not clocked hardware).
    [[nodiscard]] static bool isFlowLevel(FaultKind kind);

    FaultPlan& add(FaultEvent event);

    [[nodiscard]] std::uint64_t seed() const { return seed_; }
    [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
    [[nodiscard]] std::vector<FaultEvent> eventsOfKind(FaultKind kind) const;
    [[nodiscard]] bool empty() const { return events_.empty(); }

    /// Stable textual form; two plans are equal iff their renders match.
    [[nodiscard]] std::string render() const;

private:
    std::uint64_t seed_ = 0;
    std::vector<FaultEvent> events_;
};

/// Executes a FaultPlan against a running Engine. The injector itself is
/// substrate-agnostic: it knows nothing of AXI channels or DMAs. The SoC
/// layer registers a handler per FaultKind (SystemSimulator::armFaults)
/// and the injector, registered as an engine probe, dispatches each event
/// after the ticks of its cycle; its horizon() reaches 0 on that cycle, so
/// every component ticks on it, and each handler changes components
/// through calls that wake them. That keeps sim free of upward
/// dependencies.
class FaultInjector final : private Probe {
public:
    using Handler = std::function<void(const FaultEvent&)>;

    explicit FaultInjector(FaultPlan plan = {});

    void setPlan(FaultPlan plan);
    [[nodiscard]] const FaultPlan& plan() const { return plan_; }

    /// Registers the callback that applies events of `kind`.
    void onFault(FaultKind kind, Handler handler);

    /// Registers the injector as a probe of `engine`. Call once.
    void attach(Engine& engine);

    /// Adds an event mid-run (used for scheduled StreamResume).
    void schedule(FaultEvent event);

    /// Events fired so far, in firing order.
    [[nodiscard]] const std::vector<FaultEvent>& fired() const { return fired_; }

    /// Events whose kind had no registered handler when due.
    [[nodiscard]] const std::vector<FaultEvent>& unhandled() const { return unhandled_; }

    /// Human-readable injection log.
    [[nodiscard]] std::string log() const;

private:
    // Probe
    void sample(std::uint64_t cycles) override;
    [[nodiscard]] std::uint64_t horizon() const override;

    void pump(std::uint64_t cycle);

    FaultPlan plan_;
    std::size_t cursor_ = 0;
    std::map<FaultKind, Handler> handlers_;
    std::vector<FaultEvent> pending_; ///< events scheduled mid-run
    std::vector<FaultEvent> fired_;
    std::vector<FaultEvent> unhandled_;
    Engine* engine_ = nullptr;
};

} // namespace socgen::sim
