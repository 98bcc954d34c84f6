#pragma once

#include "socgen/common/error.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace socgen::sim {

/// Cycle count meaning "no bound": a quiet span or probe horizon that
/// nothing in the component or probe itself limits.
inline constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

/// A clocked component of the simulated SoC. Each cycle the engine calls
/// tick() once on every component in registration order (components must
/// therefore tolerate same-cycle ordering; channels decouple them).
///
/// Quiet spans: when every component reports that its coming ticks would
/// only repeat this cycle's effect (a countdown, a stall on an empty or
/// full channel, nothing to do), the engine applies those ticks with one
/// skip() call each instead of stepping cycle by cycle. The result is
/// identical to stepping; DESIGN.md §16 states the contract.
class Component {
public:
    virtual ~Component() = default;

    [[nodiscard]] virtual const std::string& name() const = 0;

    /// Advances one clock cycle. Returns true if the component did useful
    /// work this cycle (used for deadlock/quiescence detection).
    virtual bool tick() = 0;

    /// True when the component has nothing left to do.
    [[nodiscard]] virtual bool idle() const = 0;

    /// Number of coming cycles whose tick() would only repeat the same
    /// effect — same progress flag, same idle(), and no state another
    /// component can observe — provided no other component acts. 0 means
    /// the next tick must be a real one. An idle component is assumed to
    /// do nothing when ticked.
    [[nodiscard]] virtual std::uint64_t quietFor() const { return idle() ? kUnbounded : 0; }

    /// Applies `cycles` (<= quietFor()) quiet ticks at once and returns
    /// the progress flag each of them would have returned.
    virtual bool skip(std::uint64_t cycles) {
        (void)cycles;
        return false;
    }

    /// One-line description of the component's internal state, used for
    /// deadlock forensics ("polling 0x43c00004", "MM2S 512 words left").
    [[nodiscard]] virtual std::string debugState() const { return {}; }
};

/// An observer sampled after every cycle's ticks (protocol monitors,
/// fault injectors, delayed IRQ edges). Over a quiet span the engine
/// calls sample() once for the whole span.
class Probe {
public:
    virtual ~Probe() = default;

    /// Observes `cycles` consecutive cycles that all left the system in
    /// the same state; Engine::now() is the first of them.
    virtual void sample(std::uint64_t cycles) = 0;

    /// Number of coming cycles this probe can observe as one span before
    /// it must act on a real cycle (0: sample the next cycle alone).
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
/// domain (the Zynq PL fabric clock), deterministic ordering.
class Engine {
public:
    /// Registers a component (not owned). Order defines tick order.
    void add(Component& component);

    /// Registers a probe (not owned), sampled after every cycle in
    /// registration order.
    void addProbe(Probe& probe);

    /// Registers a channel snapshot source included in deadlock reports.
    void addChannelWatch(std::function<DeadlockReport::ChannelState()> watch);

    /// Runs until every component is idle, or `maxCycles` elapse.
    /// Throws DeadlockError (with a full DeadlockReport) when no component
    /// makes progress for `stallLimit` consecutive cycles while not all
    /// are idle; throws SimulationError on the cycle-budget overrun.
    /// Returns the number of cycles simulated. Quiet spans are skipped in
    /// one step each, but never across either verdict: both fire on a
    /// real cycle, exactly where per-cycle stepping would fire them.
    std::uint64_t runUntilIdle(std::uint64_t maxCycles = 100'000'000,
                               std::uint64_t stallLimit = 100'000);

    /// Runs exactly `cycles` cycles (no idle/deadlock checks), one real
    /// step per cycle.
    void run(std::uint64_t cycles);

    [[nodiscard]] std::uint64_t now() const { return now_; }

    /// Builds the forensic snapshot at the current cycle (also used by
    /// runUntilIdle when declaring a deadlock).
    [[nodiscard]] DeadlockReport snapshot(std::uint64_t stallCycles = 0) const;

private:
    void stepOnce(bool& anyProgress, bool& allIdle);
    /// Length of the quiet span starting at now_, at most `limit` cycles.
    [[nodiscard]] std::uint64_t quietSpan(std::uint64_t limit) const;
    /// Applies a quiet span of `cycles`; returns whether any component
    /// progressed in it.
    bool skipSpan(std::uint64_t cycles);

    std::vector<Component*> components_;
    std::vector<std::uint64_t> lastProgress_;
    std::vector<Probe*> probes_;
    std::vector<std::function<DeadlockReport::ChannelState()>> channelWatches_;
    std::uint64_t now_ = 0;
};

} // namespace socgen::sim
