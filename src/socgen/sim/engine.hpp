#pragma once

#include "socgen/common/error.hpp"

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace socgen::sim {

/// Cycle count meaning "no bound": a quiet span, wake deadline or probe
/// horizon that nothing in the component or probe itself limits.
inline constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

/// What Component::skip() returns when none of the skipped cycles made
/// progress.
inline constexpr std::uint64_t kNoProgress = ~std::uint64_t{0};

class Engine;

/// A clocked component of the simulated SoC. On each real cycle the
/// engine ticks, in registration order, every component that is awake
/// (components must therefore tolerate same-cycle ordering; channels
/// decouple them).
///
/// Sleep and wake (DESIGN.md §16): a component that canSleep() falls
/// asleep at the end of a cycle on which it ticked when fallAsleep()
/// returns a quiet span above 0, and is not ticked again until that span
/// ends or a wake source it armed calls wake(). At wake the engine
/// credits the slept cycles with one skip() call. A sleeper may also owe
/// moves: a DMA parked owing on a stream is not woken by each move of
/// the core at its other end, but replays the moves it owes at the cycles
/// they fell on when it is woken (DESIGN.md §16). A component that keeps
/// the default canSleep() is ticked on every real cycle; the engine only
/// asks its quietFor() when no sleeping component is due, to bound a jump
/// of the clock. Either way the result is identical to ticking every
/// component on every cycle.
class Component {
public:
    virtual ~Component() = default;

    [[nodiscard]] virtual const std::string& name() const = 0;

    /// Advances one clock cycle. Returns true if the component did useful
    /// work this cycle (used for deadlock/quiescence detection).
    virtual bool tick() = 0;

    /// True when the component has nothing left to do. Must not change
    /// over a quiet span.
    [[nodiscard]] virtual bool idle() const = 0;

    /// Number of coming cycles whose tick() would only repeat the same
    /// effect — same progress flag, same idle(), and no state another
    /// component can observe — provided no other component acts. 0 means
    /// the next tick must be a real one. An idle component is assumed to
    /// do nothing when ticked.
    [[nodiscard]] virtual std::uint64_t quietFor() const { return idle() ? kUnbounded : 0; }

    /// Applies the ticks of the `cycles` cycles from `first` at once and
    /// returns the last of those cycles on which tick() would have
    /// reported progress, or kNoProgress. The span is at most the quiet
    /// span, or, for a sleeper, the cycles it slept: the engine calls it at
    /// every wake, with `cycles` 0 when none passed, and a sleeper that
    /// owes moves makes them here.
    virtual std::uint64_t skip(std::uint64_t first, std::uint64_t cycles) {
        (void)first;
        (void)cycles;
        return kNoProgress;
    }

    /// True if the component sleeps through its quiet spans. Asked once,
    /// when the component is added to an engine. Such a component may
    /// become idle only in its own tick().
    [[nodiscard]] virtual bool canSleep() const { return false; }

    /// The one call a sleep-capable component gets at the end of a cycle
    /// on which it ticked. Returns its quiet span, as quietFor() would;
    /// when that is above 0 the component falls asleep, so it must first
    /// arm every source outside itself that can end the span early — a
    /// channel it is blocked on, an IRQ line it waits for — so that the
    /// source calls wake(). Register writes and other calls from outside
    /// that change the span call wake() themselves. The default suits a
    /// component whose quiet spans only end by themselves.
    virtual std::uint64_t fallAsleep() { return quietFor(); }

    /// Ends this component's sleep: the engine credits the slept cycles
    /// and ticks it again — on the current cycle if its turn in
    /// registration order is still to come, else on the next. Call it
    /// before changing the component's state. No-op while awake.
    void wake();

    /// First cycle on which this component has not had its turn yet: the
    /// cycle its answer to a move another component makes now falls on.
    [[nodiscard]] std::uint64_t nextTurn() const;

    /// One-line description of the component's internal state, used for
    /// deadlock forensics ("polling 0x43c00004", "MM2S 512 words left").
    [[nodiscard]] virtual std::string debugState() const { return {}; }

private:
    friend class Engine;
    Engine* engine_ = nullptr;
    std::size_t slot_ = 0;
};

/// An observer sampled after the ticks of every real cycle, and once for
/// each jump of the clock (fault injectors, delayed IRQ edges).
///
/// A probe sees a sleeping component's counters as they stood when it
/// fell asleep, and a channel that a sleeping DMA owes moves to as its
/// other end has left it since: without the owed moves, whose monitor
/// accounting is corrected when the DMA settles. The engine settles every
/// sleeper before the sample of the cycle on which a run ends (all idle,
/// deadlock or overrun). A probe whose horizon() is 0 acts on the coming
/// cycle: the engine then ticks every component on that cycle, so the
/// probe sees settled state. A probe changes components only through
/// calls that wake them (register writes, channel blocks, IRQ edges,
/// injected stalls and corruption, DDR accesses to owed words).
class Probe {
public:
    virtual ~Probe() = default;

    /// Observes `cycles` consecutive cycles: one real cycle, or a jump
    /// over which nothing that can reach the probe changed. Engine::now()
    /// is the first of them.
    virtual void sample(std::uint64_t cycles) = 0;

    /// Number of coming cycles this probe can observe before it must act
    /// on a real cycle (0: it acts on the next cycle).
    [[nodiscard]] virtual std::uint64_t horizon() const { return kUnbounded; }
};

/// Snapshot of a wedged simulation: which components stopped making
/// progress when, and what every watched channel looked like at the
/// moment of the stall. Produced by Engine::runUntilIdle and carried by
/// DeadlockError so callers (and humans) can diagnose instead of guess.
struct DeadlockReport {
    struct ComponentState {
        std::string name;
        bool idle = false;
        std::uint64_t lastProgressCycle = 0;  ///< last cycle tick() returned true
        std::string detail;                   ///< Component::debugState()
    };
    struct ChannelState {
        std::string name;
        std::size_t occupancy = 0;
        std::size_t capacity = 0;
        std::uint64_t pushStalls = 0;  ///< producer held off (TVALID && !TREADY)
        std::uint64_t popStalls = 0;   ///< consumer starved (TREADY && !TVALID)
        bool full = false;
        bool empty = false;
    };

    std::uint64_t cycle = 0;       ///< cycle at which the stall was declared
    std::uint64_t stallCycles = 0; ///< consecutive cycles without progress
    std::vector<ComponentState> components;
    std::vector<ChannelState> channels;

    /// Names of the non-idle (blocked) components.
    [[nodiscard]] std::vector<std::string> blockedComponents() const;

    /// Multi-line human-readable rendering (also the DeadlockError text).
    [[nodiscard]] std::string render() const;
};

/// SimulationError specialisation that carries the full structured
/// report; what() is the rendered report text.
class DeadlockError : public SimulationError {
public:
    explicit DeadlockError(DeadlockReport report);
    [[nodiscard]] const DeadlockReport& report() const { return report_; }

private:
    DeadlockReport report_;
};

/// Cycle-based simulation engine for a generated SoC: single clock
/// domain (the Zynq PL fabric clock), deterministic ordering. Components
/// sleep through their quiet spans and the clock jumps whenever nothing
/// is awake (DESIGN.md §16); every counter ends as per-cycle stepping
/// would leave it.
class Engine {
public:
    /// Registers a component (not owned). Order defines tick order.
    void add(Component& component);

    /// Registers a probe (not owned), sampled after every real cycle and
    /// every jump, in registration order.
    void addProbe(Probe& probe);

    /// Registers a channel snapshot source included in deadlock reports.
    void addChannelWatch(std::function<DeadlockReport::ChannelState()> watch);

    /// Runs until every component is idle, or `maxCycles` elapse.
    /// Throws DeadlockError (with a full DeadlockReport) when no component
    /// makes progress for `stallLimit` consecutive cycles while not all
    /// are idle; throws SimulationError on the cycle-budget overrun.
    /// Returns the number of cycles simulated. Both verdicts fire at the
    /// cycle per-cycle stepping would reach; a jump ends there.
    std::uint64_t runUntilIdle(std::uint64_t maxCycles = 100'000'000,
                               std::uint64_t stallLimit = 100'000);

    /// Runs exactly `cycles` cycles (no idle/deadlock checks).
    void run(std::uint64_t cycles);

    [[nodiscard]] std::uint64_t now() const { return now_; }

    /// Cycles observed so far: now() while components tick and the idle
    /// verdict asks them, now() + 1 while probes sample a real cycle, the
    /// end of the jump while they sample one. Observers that account per
    /// cycle lazily (StreamMonitor) account up to here, as a probe
    /// sampling every cycle would.
    [[nodiscard]] std::uint64_t cyclesDone() const { return frontier_ + (sampling_ ? 1 : 0); }

    /// Real cycles stepped so far (cycles not jumped over).
    [[nodiscard]] std::uint64_t steps() const { return steps_; }

    /// Real tick() calls `component` has had from this engine.
    [[nodiscard]] std::uint64_t realTicks(const Component& component) const;

    /// Builds the forensic snapshot at the current cycle (also used by
    /// runUntilIdle when declaring a deadlock). Wakes every sleeping
    /// component first, so their counters are settled.
    [[nodiscard]] DeadlockReport snapshot(std::uint64_t stallCycles = 0);

private:
    friend class Component;

    /// `cursor_` while no tick loop runs, and after the ticks of a cycle.
    static constexpr std::size_t kAfterTicks = ~std::size_t{0};

    struct Slot {
        Component* component = nullptr;
        bool sleeps = false;            ///< component->canSleep()
        bool asleep = false;
        std::uint64_t sleptFrom = 0;    ///< first slept cycle not yet credited
        std::uint64_t wakeAt = kUnbounded;  ///< cycle its quiet span ends (in timers_ if bounded)
        std::uint64_t lastProgress = 0;
        std::uint64_t ticks = 0;
    };

    /// Runs up to `maxCycles`; with `untilIdle`, stops when every
    /// component is idle and applies the deadlock verdict.
    std::uint64_t advance(std::uint64_t maxCycles, std::uint64_t stallLimit, bool untilIdle);
    /// Ticks every awake or due component for the cycle now_.
    void tickCycle();
    /// Wakes the sleepers whose quiet span ends by now_.
    void wakeDue();
    /// Earliest wakeAt of a sleeping slot (kUnbounded if none).
    [[nodiscard]] std::uint64_t nextWake() const {
        return timers_.empty() ? kUnbounded : timers_.back().wakeAt;
    }
    /// Cycles the clock can jump from now_ (0: step a real cycle), at
    /// most `limit`, when no component that can sleep is awake.
    [[nodiscard]] std::uint64_t jumpLength(std::uint64_t limit);
    /// The all-idle verdict's test, after the ticks of a cycle.
    [[nodiscard]] bool everyComponentIdle();
    /// Credits the ticks jumped over to the awake (never sleeping)
    /// components.
    void skipAwake(std::uint64_t cycles);
    /// Samples the probes for `cycles` cycles from now_ and moves the
    /// clock past them.
    void observe(std::uint64_t cycles);
    void wake(std::size_t slot) {
        if (slots_[slot].asleep) {
            settleAndWake(slot);
        }
    }
    /// Credits the slept cycles of an asleep slot and wakes it.
    void settleAndWake(std::size_t slot);
    void wakeAll();
    /// First cycle slot `slot` has passed: components before the cursor
    /// have had their turn on the current cycle.
    [[nodiscard]] std::uint64_t frontierOf(std::size_t slot) const {
        return frontier_ + (slot < cursor_ ? 1 : 0);
    }

    /// Sets or clears slot `slot`'s bit in awake_.
    void markAwake(std::size_t slot, bool awake) {
        const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        awake_[slot / 64] = awake ? awake_[slot / 64] | bit : awake_[slot / 64] & ~bit;
    }
    /// First awake slot at or after `from` (slots_.size() if none).
    [[nodiscard]] std::size_t nextAwake(std::size_t from) const {
        std::size_t word = from / 64;
        if (word >= awake_.size()) {
            return slots_.size();
        }
        std::uint64_t bits = awake_[word] & (~std::uint64_t{0} << (from % 64));
        while (bits == 0) {
            if (++word == awake_.size()) {
                return slots_.size();
            }
            bits = awake_[word];
        }
        return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }

    std::vector<Slot> slots_;
    /// Bit i set: slot i is awake — it cannot sleep, or it is not asleep.
    /// A cycle ticks these slots only, in registration order.
    std::vector<std::uint64_t> awake_;
    std::vector<std::size_t> ticked_;  ///< slots that can sleep ticked this cycle
    std::vector<Probe*> probes_;
    std::vector<std::function<DeadlockReport::ChannelState()>> channelWatches_;
    std::uint64_t now_ = 0;
    std::uint64_t frontier_ = 0;       ///< first cycle not every slot has passed
    std::size_t cursor_ = 0;           ///< slot being ticked on cycle frontier_
    bool sampling_ = false;            ///< the probes are sampling
    std::size_t sleepers_ = 0;         ///< slots that can sleep
    std::size_t awakeSleepers_ = 0;    ///< of which awake
    struct Timer {
        std::uint64_t wakeAt = 0;
        std::size_t slot = 0;
    };
    /// The sleepers with a bounded quiet span, latest wakeAt first.
    std::vector<Timer> timers_;
    /// First cycle of the current no-progress run, as far as the ticks and
    /// settled sleepers tell.
    std::uint64_t stallFrom_ = 0;
    std::uint64_t steps_ = 0;
    std::size_t busy_ = 0;  ///< a component found busy by the last idle test
};

inline void Component::wake() {
    if (engine_ != nullptr) {
        engine_->wake(slot_);
    }
}

inline std::uint64_t Component::nextTurn() const {
    return engine_ != nullptr ? engine_->frontierOf(slot_) : 0;
}

} // namespace socgen::sim
