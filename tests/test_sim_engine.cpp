#include "socgen/common/error.hpp"
#include "socgen/sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <utility>
#include <vector>

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
    std::uint64_t skip(std::uint64_t first, std::uint64_t cycles) override {
        if (remaining_ == 0 || cycles == 0) {
            return kNoProgress;
        }
        remaining_ -= cycles;
        return first + cycles - 1;
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

/// A Countdown and a Parked that sleep through their quiet spans instead
/// of only letting the clock jump.
class SleepingCountdown : public Countdown {
public:
    using Countdown::Countdown;
    bool canSleep() const override { return true; }
};

class SleepingParked : public Parked {
public:
    bool canSleep() const override { return true; }
};

/// Acts on every cycle: the engine then ticks every component on every
/// cycle and never jumps, which is per-cycle stepping.
class StepPin final : public Probe {
public:
    void sample(std::uint64_t /*cycles*/) override {}
    std::uint64_t horizon() const override { return 0; }
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
                                   std::uint64_t stallLimit, bool sleeping = false) {
    Engine engine;
    Countdown countdown("countdown", 10'000);
    Parked parked;
    SleepingCountdown sleepingCountdown("countdown", 10'000);
    SleepingParked sleepingParked;
    StepPin pin;
    CycleCounter probe;
    engine.add(sleeping ? sleepingCountdown : countdown);
    engine.add(sleeping ? static_cast<Component&>(sleepingParked) : parked);
    if (pinned) {
        engine.addProbe(pin);
    }
    engine.addProbe(probe);
    EngineOutcome out;
    try {
        (void)engine.runUntilIdle(maxCycles, stallLimit);
    } catch (const DeadlockError& e) {
        out.error = e.report().render() + "\nstall cycles " +
                    std::to_string(e.report().stallCycles);
        for (const auto& c : e.report().components) {
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
    // The clock jumps over the countdown and the parked stall.
    EXPECT_LT(fast.probeCalls, fast.probeCycles / 100);
}

TEST(Engine, SleepingCountdownHoldsOffTheDeadlockVerdict) {
    // The countdown sleeps through 10k progressing cycles, 20 times the
    // stall limit; only settling it shows that progress.
    const EngineOutcome fast = runCountdownThenPark(false, 1'000'000, 500, true);
    const EngineOutcome slow = runCountdownThenPark(true, 1'000'000, 500, true);
    EXPECT_EQ(slow.now, 10'500u);
    EXPECT_EQ(fast.now, slow.now);
    EXPECT_EQ(fast.error, slow.error);
    EXPECT_NE(fast.error.find("countdown last progress 9999"), std::string::npos)
        << fast.error;
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
    EXPECT_LE(probe.calls, 3u);  // one jump, then the countdown's last tick
}

/// A one-letter mailbox: the smallest wake source. Posting wakes the
/// component parked on it.
struct Mailbox {
    bool full = false;
    Component* parked = nullptr;

    void post() {
        if (parked != nullptr) {
            std::exchange(parked, nullptr)->wake();
        }
        full = true;
    }
};

/// Posts a letter on each of the given cycles and sleeps in between.
class Sender : public Component {
public:
    Sender(const Engine& engine, Mailbox& box, std::vector<std::uint64_t> at)
        : engine_(engine), box_(box), at_(std::move(at)) {}

    const std::string& name() const override { return name_; }
    bool tick() override {
        if (next_ < at_.size() && engine_.now() == at_[next_]) {
            box_.post();
            ++next_;
            return true;
        }
        return false;
    }
    bool idle() const override { return next_ == at_.size(); }
    std::uint64_t quietFor() const override {
        return idle() ? kUnbounded : at_[next_] - engine_.now() - 1;
    }
    bool canSleep() const override { return true; }

private:
    std::string name_ = "sender";
    const Engine& engine_;
    Mailbox& box_;
    std::vector<std::uint64_t> at_;
    std::size_t next_ = 0;
};

/// Waits for `expected` letters, sleeping while the box is empty. `age`
/// counts every cycle, ticked or slept; `waited` the ones spent waiting.
class Receiver : public Component {
public:
    Receiver(const Engine& engine, Mailbox& box, std::size_t expected)
        : engine_(engine), box_(box), expected_(expected) {}

    const std::string& name() const override { return name_; }
    bool tick() override {
        ++age;
        if (box_.full) {
            box_.full = false;
            received.push_back(engine_.now());
            return true;
        }
        if (!idle()) {
            ++waited;
        }
        return false;
    }
    bool idle() const override { return received.size() == expected_; }
    std::uint64_t quietFor() const override { return box_.full ? 0 : kUnbounded; }
    std::uint64_t skip(std::uint64_t /*first*/, std::uint64_t cycles) override {
        age += cycles;
        if (!idle()) {
            waited += cycles;
        }
        return kNoProgress;
    }
    bool canSleep() const override { return true; }
    std::uint64_t fallAsleep() override {
        const std::uint64_t quiet = quietFor();
        if (quiet > 0) {
            box_.parked = this;
        }
        return quiet;
    }
    std::string debugState() const override {
        return "waited " + std::to_string(waited) + " cycles";
    }

    std::vector<std::uint64_t> received;
    std::uint64_t age = 0;
    std::uint64_t waited = 0;

private:
    std::string name_ = "receiver";
    const Engine& engine_;
    Mailbox& box_;
    std::size_t expected_;
};

struct Delivery {
    std::vector<std::uint64_t> received;
    std::uint64_t waited = 0;
    std::uint64_t receiverTicks = 0;
    std::uint64_t cycles = 0;
};

Delivery deliver(bool senderFirst, bool pinned) {
    Engine engine;
    Mailbox box;
    Sender sender(engine, box, {100, 250, 251});
    Receiver receiver(engine, box, 3);
    StepPin pin;
    if (senderFirst) {
        engine.add(sender);
        engine.add(receiver);
    } else {
        engine.add(receiver);
        engine.add(sender);
    }
    if (pinned) {
        engine.addProbe(pin);
    }
    Delivery out;
    out.cycles = engine.runUntilIdle();
    out.received = receiver.received;
    out.waited = receiver.waited;
    out.receiverTicks = engine.realTicks(receiver);
    return out;
}

TEST(Engine, EarlierProducerWakesLaterConsumerOnTheSameCycle) {
    const Delivery fast = deliver(true, false);
    const Delivery slow = deliver(true, true);
    EXPECT_EQ(fast.received, (std::vector<std::uint64_t>{100, 250, 251}));
    EXPECT_EQ(fast.received, slow.received);
    EXPECT_EQ(fast.waited, slow.waited);
    EXPECT_EQ(fast.cycles, slow.cycles);
    EXPECT_EQ(slow.receiverTicks, slow.cycles);
    EXPECT_LT(fast.receiverTicks, 10u);  // it slept between the letters
}

TEST(Engine, LaterProducerWakesEarlierConsumerOnTheNextCycle) {
    const Delivery fast = deliver(false, false);
    const Delivery slow = deliver(false, true);
    EXPECT_EQ(fast.received, (std::vector<std::uint64_t>{101, 251, 252}));
    EXPECT_EQ(fast.received, slow.received);
    EXPECT_EQ(fast.waited, slow.waited);
    EXPECT_EQ(fast.cycles, slow.cycles);
    EXPECT_LT(fast.receiverTicks, 10u);
}

/// Snapshots the engine once, while observing the cycles that cross
/// `at`, and records what the receiver had waited by then.
class Snooper final : public Probe {
public:
    Snooper(Engine& engine, const Receiver& receiver, std::uint64_t at)
        : engine_(engine), receiver_(receiver), at_(at) {}

    void sample(std::uint64_t cycles) override {
        if (taken || engine_.now() + cycles <= at_) {
            return;
        }
        taken = true;
        observedEnd = engine_.now() + cycles;
        report = engine_.snapshot();
        waitedThen = receiver_.waited;
    }

    bool taken = false;
    std::uint64_t observedEnd = 0;
    std::uint64_t waitedThen = 0;
    DeadlockReport report;

private:
    Engine& engine_;
    const Receiver& receiver_;
    std::uint64_t at_;
};

TEST(Engine, SleepingConsumerIsSettledBeforeSnapshotAndVerdicts) {
    Engine engine;
    Mailbox box;
    Receiver receiver(engine, box, 1);  // no letter ever comes
    Worker busy("busy", 1'000);         // keeps the engine stepping meanwhile
    Snooper snooper(engine, receiver, 500);
    engine.add(receiver);
    engine.add(busy);
    engine.addProbe(snooper);
    try {
        (void)engine.runUntilIdle(1'000'000, 2'000);
        FAIL() << "expected a deadlock";
    } catch (const DeadlockError& e) {
        // A snapshot taken mid-run, while the receiver slept: every cycle
        // observed so far was a wait.
        ASSERT_TRUE(snooper.taken);
        EXPECT_EQ(snooper.observedEnd, 501u);
        EXPECT_EQ(snooper.waitedThen, 501u);
        ASSERT_EQ(snooper.report.components.size(), 2u);
        EXPECT_EQ(snooper.report.components[0].detail, "waited 501 cycles");
        // The verdict's report, at the cycle per-cycle stepping reaches:
        // busy progressed through cycle 999.
        EXPECT_EQ(e.report().cycle, 3'000u);
        EXPECT_EQ(e.report().stallCycles, 2'000u);
        EXPECT_EQ(e.report().components[0].detail, "waited 3000 cycles");
        EXPECT_EQ(e.report().components[1].lastProgressCycle, 999u);
        EXPECT_EQ(receiver.waited, 3'000u);
    }
    // A fixed run ends settled too, and so does a later snapshot.
    engine.run(300);
    EXPECT_EQ(receiver.waited, 3'300u);
    EXPECT_EQ(engine.snapshot().components[0].detail, "waited 3300 cycles");
    EXPECT_LT(engine.realTicks(receiver), 10u);
}

/// Keeps the default canSleep(): idle, never progressing, counting its
/// ticks; its idle() copies the receiver's age, as perfbench's counter
/// probe copies the board's counters on the final all-idle verdict.
class IdleRecorder : public Component {
public:
    explicit IdleRecorder(const Receiver& receiver) : receiver_(receiver) {}

    const std::string& name() const override { return name_; }
    bool tick() override {
        ++ticks;
        return false;
    }
    bool idle() const override {
        copiedAge = receiver_.age;
        return true;
    }

    std::uint64_t ticks = 0;
    mutable std::uint64_t copiedAge = 0;

private:
    std::string name_ = "recorder";
    const Receiver& receiver_;
};

TEST(Engine, DefaultComponentsTickOnEveryRealCycle) {
    Engine engine;
    Mailbox box;
    Sender sender(engine, box, {100, 250, 400});
    Receiver receiver(engine, box, 3);
    IdleRecorder recorder(receiver);
    Worker busy("busy", 50);  // never quiet while it works
    engine.add(sender);
    engine.add(receiver);
    engine.add(recorder);
    engine.add(busy);
    const std::uint64_t cycles = engine.runUntilIdle();
    EXPECT_EQ(cycles, 401u);
    EXPECT_EQ(engine.realTicks(recorder), engine.steps());
    EXPECT_EQ(recorder.ticks, engine.steps());
    EXPECT_EQ(engine.realTicks(busy), engine.steps());
    EXPECT_GE(engine.steps(), 50u);      // busy's 50 cycles are all real
    EXPECT_LT(engine.steps(), cycles);   // and the clock jumped after them
    // The receiver slept through cycles on which the others ticked.
    EXPECT_LT(engine.realTicks(receiver), engine.steps());
}

TEST(Engine, FinalVerdictAsksEveryComponentAfterSettling) {
    for (const bool pinned : {false, true}) {
        Engine engine;
        Mailbox box;
        Sender sender(engine, box, {100, 250});
        Receiver receiver(engine, box, 2);  // idle, and asleep, after 250
        IdleRecorder recorder(receiver);    // registered first
        Worker busy("busy", 300);
        StepPin pin;
        engine.add(recorder);
        engine.add(sender);
        engine.add(receiver);
        engine.add(busy);
        if (pinned) {
            engine.addProbe(pin);
        }
        const std::uint64_t cycles = engine.runUntilIdle();
        EXPECT_EQ(cycles, 300u);
        EXPECT_EQ(receiver.age, cycles);
        EXPECT_EQ(recorder.copiedAge, cycles) << (pinned ? "pinned" : "free");
    }
}

/// A sleeper that progresses on scripted cycles and is otherwise wedged:
/// it sleeps for good after each tick, and its skip() reports the last
/// scripted cycle of the span it slept, as a DMA replaying owed moves
/// does. Only a settle shows its progress.
class Ledger : public Component {
public:
    Ledger(const Engine& engine, std::vector<std::uint64_t> progressAt)
        : engine_(engine), progressAt_(std::move(progressAt)) {}

    const std::string& name() const override { return name_; }
    bool tick() override { return progresses(engine_.now()); }
    bool idle() const override { return false; }
    bool canSleep() const override { return true; }
    std::uint64_t fallAsleep() override { return kUnbounded; }
    std::uint64_t skip(std::uint64_t first, std::uint64_t cycles) override {
        std::uint64_t last = kNoProgress;
        for (const std::uint64_t at : progressAt_) {
            if (at >= first && at < first + cycles) {
                last = at;
            }
        }
        return last;
    }

private:
    [[nodiscard]] bool progresses(std::uint64_t cycle) const {
        return std::find(progressAt_.begin(), progressAt_.end(), cycle) != progressAt_.end();
    }

    std::string name_ = "ledger";
    const Engine& engine_;
    std::vector<std::uint64_t> progressAt_;
};

TEST(Engine, ProgressMidSleepMovesTheVerdictExactly) {
    // The last progress falls inside a long sleep, 766 cycles before the
    // settle that reports it; the verdict and lastProgressCycle must land
    // where per-cycle stepping puts them.
    std::vector<std::string> renders;
    for (const bool pinned : {false, true}) {
        Engine engine;
        Ledger ledger(engine, {10, 500, 1234});
        StepPin pin;
        CycleCounter probe;
        engine.add(ledger);
        if (pinned) {
            engine.addProbe(pin);
        }
        engine.addProbe(probe);
        try {
            (void)engine.runUntilIdle(1'000'000, 1'000);
            FAIL() << "expected a deadlock";
        } catch (const DeadlockError& e) {
            EXPECT_EQ(e.report().cycle, 2'235u);
            EXPECT_EQ(e.report().stallCycles, 1'000u);
            ASSERT_EQ(e.report().components.size(), 1u);
            EXPECT_EQ(e.report().components[0].lastProgressCycle, 1'234u);
            renders.push_back(e.report().render());
        }
        EXPECT_EQ(engine.now(), 2'235u);
        if (!pinned) {
            EXPECT_LT(engine.realTicks(ledger), 10u);  // it slept through its progress
        }
    }
    ASSERT_EQ(renders.size(), 2u);
    EXPECT_EQ(renders[0], renders[1]);
}

/// A scripted component for the randomized scheduler property: it acts
/// (progress, records the cycle, may poke another component) every
/// `span` + 1 ticks, with spans drawn from its own seeded stream, and
/// goes idle after `acts` acts. The ticks in between only count down;
/// they progress never, always, or on the cycles that are multiples of
/// the component's period, so a skipped span's last progress can fall
/// anywhere in it. A poke wakes it and ends its countdown, so it acts on
/// its next tick.
class Scripted : public Component {
public:
    Scripted(const Engine& engine, std::string name, std::uint64_t seed, bool sleeps)
        : engine_(engine), name_(std::move(name)), rng_(seed), sleeps_(sleeps) {
        actsLeft_ = 3 + rng_() % 12;
        const std::uint64_t draw = rng_() % 4;
        quietEvery_ = draw < 2 ? draw : 2 + rng_() % 5;
        wait_ = nextSpan();
    }

    void setPeers(std::vector<Scripted*> peers) { peers_ = std::move(peers); }

    const std::string& name() const override { return name_; }
    bool tick() override {
        ++age;
        if (actsLeft_ == 0) {
            return false;
        }
        if (wait_ > 0) {
            --wait_;
            const bool progress = quietEvery_ != 0 && engine_.now() % quietEvery_ == 0;
            progressTicks += progress ? 1 : 0;
            return progress;
        }
        acts.push_back(engine_.now());
        ++progressTicks;
        --actsLeft_;
        wait_ = nextSpan();
        if (!peers_.empty() && rng_() % 3 == 0) {
            peers_[rng_() % peers_.size()]->poke();
        }
        return true;
    }
    bool idle() const override { return actsLeft_ == 0; }
    std::uint64_t quietFor() const override { return idle() ? kUnbounded : wait_; }
    std::uint64_t skip(std::uint64_t first, std::uint64_t cycles) override {
        age += cycles;
        if (idle()) {
            return kNoProgress;
        }
        wait_ -= cycles;
        if (quietEvery_ == 0 || cycles == 0) {
            return kNoProgress;
        }
        // Multiples of the period in [first, end): the progressing ticks.
        const std::uint64_t end = first + cycles;
        const auto below = [&](std::uint64_t n) { return (n + quietEvery_ - 1) / quietEvery_; };
        progressTicks += below(end) - below(first);
        const std::uint64_t last = (end - 1) - (end - 1) % quietEvery_;
        return last >= first ? last : kNoProgress;
    }
    bool canSleep() const override { return sleeps_; }
    std::string debugState() const override {
        return std::to_string(actsLeft_) + " acts left, waiting " + std::to_string(wait_);
    }

    void poke() {
        wake();
        wait_ = 0;
    }

    std::vector<std::uint64_t> acts;
    std::uint64_t age = 0;
    std::uint64_t progressTicks = 0;

private:
    std::uint64_t nextSpan() {
        // Mostly short spans, some long enough to trip the stall limit.
        return rng_() % 4 == 0 ? rng_() % 300 : rng_() % 6;
    }

    const Engine& engine_;
    std::string name_;
    std::mt19937_64 rng_;
    bool sleeps_;
    std::uint64_t quietEvery_ = 0;  ///< quiet ticks progress on multiples of it (0: never)
    std::uint64_t actsLeft_ = 0;
    std::uint64_t wait_ = 0;
    std::vector<Scripted*> peers_;
};

struct ScriptOutcome {
    std::string verdict;
    std::vector<std::vector<std::uint64_t>> acts;  ///< by component index
    std::vector<std::uint64_t> ages;
    std::vector<std::uint64_t> progressTicks;
    std::vector<std::uint64_t> lastProgress;
    std::uint64_t realTicks = 0;

    bool operator==(const ScriptOutcome& o) const {
        return verdict == o.verdict && acts == o.acts && ages == o.ages &&
               progressTicks == o.progressTicks && lastProgress == o.lastProgress;
    }
};

/// Twelve scripted components, some sleeping, registered in a seeded
/// order, run to a verdict; `pinned` steps every cycle.
ScriptOutcome runScript(std::uint64_t seed, bool pinned) {
    std::mt19937_64 rng(seed);
    Engine engine;
    std::vector<std::unique_ptr<Scripted>> parts;
    for (int i = 0; i < 12; ++i) {
        parts.push_back(std::make_unique<Scripted>(engine, "c" + std::to_string(i), rng(),
                                                   rng() % 4 != 0));
    }
    std::vector<Scripted*> all;
    for (const auto& p : parts) {
        all.push_back(p.get());
    }
    for (const auto& p : parts) {
        p->setPeers(all);
    }
    std::vector<Scripted*> order = all;
    std::shuffle(order.begin(), order.end(), rng);
    for (Scripted* p : order) {
        engine.add(*p);
    }
    StepPin pin;
    if (pinned) {
        engine.addProbe(pin);
    }
    const std::uint64_t stallLimit = 50 + rng() % 400;
    ScriptOutcome out;
    try {
        out.verdict = "idle after " + std::to_string(engine.runUntilIdle(1'000'000, stallLimit));
    } catch (const DeadlockError& e) {
        out.verdict = e.report().render();
    }
    const DeadlockReport report = engine.snapshot();
    for (std::size_t i = 0; i < parts.size(); ++i) {
        out.acts.push_back(parts[i]->acts);
        out.ages.push_back(parts[i]->age);
        out.progressTicks.push_back(parts[i]->progressTicks);
        out.realTicks += engine.realTicks(*parts[i]);
    }
    for (const auto& c : report.components) {
        out.lastProgress.push_back(c.lastProgressCycle);
    }
    return out;
}

TEST(Engine, RandomScriptsRunAsPerCycleSteppingDoes) {
    std::size_t deadlocks = 0;
    std::uint64_t freeTicks = 0;
    std::uint64_t pinnedTicks = 0;
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        const ScriptOutcome free = runScript(seed, false);
        const ScriptOutcome pinned = runScript(seed, true);
        ASSERT_TRUE(free == pinned) << "seed " << seed << "\nfree: " << free.verdict
                                    << "\npinned: " << pinned.verdict;
        deadlocks += free.verdict.find("deadlock") != std::string::npos ? 1 : 0;
        freeTicks += free.realTicks;
        pinnedTicks += pinned.realTicks;
    }
    // Both verdicts occur, and the free runs sleep through most ticks.
    EXPECT_GT(deadlocks, 0u);
    EXPECT_LT(deadlocks, 150u);
    EXPECT_LT(freeTicks * 2, pinnedTicks);
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
