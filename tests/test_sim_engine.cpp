#include "socgen/common/error.hpp"
#include "socgen/sim/engine.hpp"

#include <gtest/gtest.h>

namespace socgen::sim {
namespace {

/// Component that works for `budget` cycles then goes idle.
class Worker : public Component {
public:
    Worker(std::string name, int budget) : name_(std::move(name)), remaining_(budget) {}

    const std::string& name() const override { return name_; }
    bool tick() override {
        if (remaining_ > 0) {
            --remaining_;
            return true;
        }
        return false;
    }
    bool idle() const override { return remaining_ == 0; }

private:
    std::string name_;
    int remaining_;
};

/// Component that is never idle and never progresses (deadlock model).
class Stuck : public Component {
public:
    const std::string& name() const override { return name_; }
    bool tick() override { return false; }
    bool idle() const override { return false; }
    std::string debugState() const override { return "wedged waiting on nothing"; }

private:
    std::string name_ = "stuck";
};

TEST(Engine, RunsUntilAllIdle) {
    Engine engine;
    Worker a("a", 5);
    Worker b("b", 9);
    engine.add(a);
    engine.add(b);
    const std::uint64_t cycles = engine.runUntilIdle();
    EXPECT_EQ(cycles, 9u);  // the longest worker's busy cycles
    EXPECT_EQ(engine.now(), cycles);
}

TEST(Engine, DeadlockDetectedWithComponentNames) {
    Engine engine;
    Stuck stuck;
    engine.add(stuck);
    try {
        engine.runUntilIdle(1000, 50);
        FAIL() << "expected deadlock";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos);
    }
}

TEST(Engine, DeadlockErrorCarriesStructuredReport) {
    Engine engine;
    Worker done("worker", 3);  // makes progress, then goes idle
    Stuck stuck;
    engine.add(done);
    engine.add(stuck);
    engine.addChannelWatch([] {
        DeadlockReport::ChannelState state;
        state.name = "x -> y";
        state.occupancy = 0;
        state.capacity = 8;
        state.empty = true;
        return state;
    });
    try {
        engine.runUntilIdle(10'000, 40);
        FAIL() << "expected deadlock";
    } catch (const DeadlockError& e) {
        const DeadlockReport& report = e.report();
        EXPECT_EQ(report.stallCycles, 40u);
        EXPECT_GE(report.cycle, 40u);
        // Only the stuck component counts as blocked; the idle worker does
        // not, but its last-progress cycle is still recorded.
        EXPECT_EQ(report.blockedComponents(), std::vector<std::string>{"stuck"});
        ASSERT_EQ(report.components.size(), 2u);
        EXPECT_EQ(report.components[0].name, "worker");
        EXPECT_TRUE(report.components[0].idle);
        EXPECT_EQ(report.components[0].lastProgressCycle, 2u);  // ticks at 0,1,2
        EXPECT_FALSE(report.components[1].idle);
        EXPECT_EQ(report.components[1].detail, "wedged waiting on nothing");
        ASSERT_EQ(report.channels.size(), 1u);
        EXPECT_EQ(report.channels[0].name, "x -> y");
        // what() is the rendered report: names, progress cycles, channels.
        const std::string what = e.what();
        EXPECT_NE(what.find("deadlock"), std::string::npos);
        EXPECT_NE(what.find("stuck"), std::string::npos);
        EXPECT_NE(what.find("wedged waiting on nothing"), std::string::npos);
        EXPECT_NE(what.find("x -> y"), std::string::npos);
        EXPECT_NE(what.find("EMPTY"), std::string::npos);
        // what() is the rendered report behind the subsystem prefix.
        EXPECT_NE(what.find(report.render()), std::string::npos);
    }
}

TEST(Engine, SnapshotCapturesCurrentState) {
    Engine engine;
    Worker w("w", 5);
    engine.add(w);
    engine.run(2);
    const DeadlockReport report = engine.snapshot();
    EXPECT_EQ(report.cycle, 2u);
    ASSERT_EQ(report.components.size(), 1u);
    EXPECT_EQ(report.components[0].name, "w");
    EXPECT_EQ(report.components[0].lastProgressCycle, 1u);  // ticks at 0,1
}

TEST(Engine, MaxCyclesExceededThrows) {
    Engine engine;
    Worker w("w", 1000);
    engine.add(w);
    EXPECT_THROW(engine.runUntilIdle(10), Error);
}

/// Probe that counts the cycles it observed and the calls it took.
class CycleCounter final : public Probe {
public:
    void sample(std::uint64_t cycles) override {
        observed += cycles;
        ++calls;
    }
    std::uint64_t observed = 0;
    std::uint64_t calls = 0;
};

TEST(Engine, ProbesRunEveryCycle) {
    Engine engine;
    Worker w("w", 3);
    engine.add(w);
    CycleCounter probe;
    engine.addProbe(probe);
    const std::uint64_t cycles = engine.runUntilIdle();
    EXPECT_EQ(probe.observed, cycles);
    EXPECT_EQ(probe.calls, cycles);  // a Worker is never quiet: one call per cycle
}

/// Busy for `budget` cycles, and quiet through all but the last of them
/// (after which it goes idle).
class Countdown : public Component {
public:
    Countdown(std::string name, std::uint64_t budget)
        : name_(std::move(name)), remaining_(budget) {}

    const std::string& name() const override { return name_; }
    bool tick() override {
        if (remaining_ > 0) {
            --remaining_;
            return true;
        }
        return false;
    }
    bool idle() const override { return remaining_ == 0; }
    std::uint64_t quietFor() const override {
        return remaining_ > 0 ? remaining_ - 1 : kUnbounded;
    }
    bool skip(std::uint64_t cycles) override {
        if (remaining_ == 0) {
            return false;
        }
        remaining_ -= cycles;
        return true;
    }
    std::string debugState() const override {
        return "counting down " + std::to_string(remaining_);
    }

private:
    std::string name_;
    std::uint64_t remaining_;
};

/// Wedged for good, and says so: every coming tick repeats the stall.
class Parked : public Stuck {
public:
    std::uint64_t quietFor() const override { return kUnbounded; }
};

/// Idle and never progressing, but never quiet: pins the engine to one
/// real step per cycle.
class StepPin : public Component {
public:
    const std::string& name() const override { return name_; }
    bool tick() override { return false; }
    bool idle() const override { return true; }
    std::uint64_t quietFor() const override { return 0; }

private:
    std::string name_ = "pin";
};

struct EngineOutcome {
    std::string error;
    std::uint64_t now = 0;
    std::uint64_t probeCycles = 0;
    std::uint64_t probeCalls = 0;
};

/// Runs a 10k-cycle countdown beside a parked component, either as is
/// or pinned to per-cycle stepping.
EngineOutcome runCountdownThenPark(bool pinned, std::uint64_t maxCycles,
                                   std::uint64_t stallLimit) {
    Engine engine;
    Countdown countdown("countdown", 10'000);
    Parked parked;
    StepPin pin;
    CycleCounter probe;
    engine.add(countdown);
    engine.add(parked);
    if (pinned) {
        engine.add(pin);
    }
    engine.addProbe(probe);
    EngineOutcome out;
    try {
        (void)engine.runUntilIdle(maxCycles, stallLimit);
    } catch (const DeadlockError& e) {
        out.error = e.report().render() + "\nstall cycles " +
                    std::to_string(e.report().stallCycles);
        for (const auto& c : e.report().components) {
            if (c.name == "pin") {
                continue;  // present only in the pinned run
            }
            out.error += "\n" + c.name + " last progress " + std::to_string(c.lastProgressCycle);
        }
    } catch (const SimulationError& e) {
        out.error = e.what();
    }
    out.now = engine.now();
    out.probeCycles = probe.observed;
    out.probeCalls = probe.calls;
    return out;
}

TEST(Engine, DeadlockAfterQuietCountdownFiresAtTheSameCycle) {
    const EngineOutcome fast = runCountdownThenPark(false, 1'000'000, 500);
    const EngineOutcome slow = runCountdownThenPark(true, 1'000'000, 500);
    // The countdown progresses on cycles 0..9999; 500 stalled cycles later
    // the verdict fires, after the ticks of cycle 10'499.
    EXPECT_EQ(slow.now, 10'500u);
    EXPECT_EQ(fast.now, slow.now);
    EXPECT_EQ(fast.error, slow.error);
    EXPECT_NE(fast.error.find("no progress for 500 cycles at cycle 10500"), std::string::npos)
        << fast.error;
    EXPECT_NE(fast.error.find("countdown last progress 9999"), std::string::npos)
        << fast.error;
    EXPECT_NE(fast.error.find("stall cycles 500"), std::string::npos);
    EXPECT_EQ(fast.probeCycles, slow.probeCycles);
    EXPECT_EQ(slow.probeCalls, slow.probeCycles);
    // Spans stop short of the stall limit, so a few dozen calls cover it.
    EXPECT_LT(fast.probeCalls, fast.probeCycles / 100);
}

TEST(Engine, OverrunAfterQuietSpansFiresAtTheSameCount) {
    // Mid-countdown, and again while parked below the stall limit.
    for (const std::uint64_t maxCycles : {5'000ULL, 12'000ULL}) {
        const EngineOutcome fast = runCountdownThenPark(false, maxCycles, 100'000);
        const EngineOutcome slow = runCountdownThenPark(true, maxCycles, 100'000);
        EXPECT_EQ(slow.now, maxCycles);
        EXPECT_EQ(fast.now, maxCycles);
        EXPECT_EQ(fast.error, slow.error);
        EXPECT_NE(fast.error.find("exceeded " + std::to_string(maxCycles) + " cycles"),
                  std::string::npos)
            << fast.error;
        EXPECT_EQ(fast.probeCycles, maxCycles);
    }
}

TEST(Engine, QuietSpansEndOnTheFinalRealStep) {
    Engine engine;
    Countdown countdown("countdown", 10'000);
    CycleCounter probe;
    engine.add(countdown);
    engine.addProbe(probe);
    EXPECT_EQ(engine.runUntilIdle(), 10'000u);
    EXPECT_EQ(probe.observed, 10'000u);
    EXPECT_LE(probe.calls, 3u);  // one span, then the countdown's last tick
}

TEST(Engine, FixedRunIgnoresIdle) {
    Engine engine;
    Worker w("w", 2);
    engine.add(w);
    engine.run(20);
    EXPECT_EQ(engine.now(), 20u);
}

TEST(Engine, EmptyEngineQuiescesImmediately) {
    Engine engine;
    EXPECT_EQ(engine.runUntilIdle(), 1u);
}

} // namespace
} // namespace socgen::sim
