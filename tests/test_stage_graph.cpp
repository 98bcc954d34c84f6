// Unit tests of the declarative stage-graph engine (CTest label:
// stage-graph): graph validation, deterministic topological ordering, the
// executor's retry/absorb semantics, and its serial run, inline or on an
// external scheduler's threads.

#include "socgen/common/error.hpp"
#include "socgen/core/stage_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace socgen::core {
namespace {

Stage simpleStage(std::string name, std::vector<std::string> deps,
                  std::string digest = "") {
    Stage stage;
    stage.name = std::move(name);
    stage.deps = std::move(deps);
    stage.attempt = [](const StageContext&) -> std::any { return std::any{}; };
    stage.commit = [digest = std::move(digest)](std::any&&, const StageRun&) {
        StageOutput out;
        out.digest = digest;
        return out;
    };
    return stage;
}

/// Collects every published event kind, in order (the bus serializes
/// publication, so no locking is needed here).
struct RecordingSubscriber : FlowEventSubscriber {
    std::vector<FlowEvent> events;
    void onEvent(const FlowEvent& event) override { events.push_back(event); }
    [[nodiscard]] std::size_t count(FlowEventKind kind) const {
        std::size_t n = 0;
        for (const auto& e : events) {
            if (e.kind == kind) {
                ++n;
            }
        }
        return n;
    }
    /// The first `kind` event of `stage`; fails the test when there is none.
    [[nodiscard]] FlowEvent find(FlowEventKind kind, const std::string& stage) const {
        for (const auto& e : events) {
            if (e.kind == kind && e.stage == stage) {
                return e;
            }
        }
        ADD_FAILURE() << "no " << toString(kind) << " event for stage " << stage;
        return FlowEvent{};
    }
};

// ---------------------------------------------------------------------------
// Graph validation

TEST(StageGraph, RejectsDuplicateAndEmptyNames) {
    StageGraph graph;
    graph.add(simpleStage("a", {}));
    EXPECT_THROW(graph.add(simpleStage("a", {})), StageGraphError);
    EXPECT_THROW(graph.add(simpleStage("", {})), StageGraphError);
    EXPECT_TRUE(graph.has("a"));
    EXPECT_FALSE(graph.has("b"));
}

TEST(StageGraph, RejectsUnknownDependency) {
    StageGraph graph;
    graph.add(simpleStage("a", {"ghost"}));
    try {
        (void)graph.topologicalOrder();
        FAIL() << "expected StageGraphError";
    } catch (const StageGraphError& e) {
        EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
    }
}

TEST(StageGraph, RejectsDependencyCycle) {
    StageGraph graph;
    graph.add(simpleStage("a", {"c"}));
    graph.add(simpleStage("b", {"a"}));
    graph.add(simpleStage("c", {"b"}));
    try {
        (void)graph.topologicalOrder();
        FAIL() << "expected StageGraphError";
    } catch (const StageGraphError& e) {
        EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("a"), std::string::npos);
    }
}

TEST(StageGraph, TopologicalOrderIsInsertionStable) {
    // Diamond a -> {b, c} -> d, plus an independent e added last: the
    // order is a deterministic function of the graph (lowest insertion
    // index among ready stages), not of any scheduling.
    StageGraph graph;
    graph.add(simpleStage("a", {}));
    graph.add(simpleStage("b", {"a"}));
    graph.add(simpleStage("c", {"a"}));
    graph.add(simpleStage("d", {"b", "c"}));
    graph.add(simpleStage("e", {}));
    const std::vector<std::string> expected = {"a", "b", "c", "d", "e"};
    EXPECT_EQ(graph.topologicalNames(), expected);
    EXPECT_EQ(graph.topologicalNames(), expected);  // stable across calls
}

// ---------------------------------------------------------------------------
// Executor semantics

TEST(StageGraphExecutorTest, RunsEveryStageAndReportsOutputs) {
    StageGraph graph;
    std::atomic<int> order{0};
    int ranA = -1;
    int ranB = -1;
    Stage a = simpleStage("a", {}, "digest-a");
    a.attempt = [&](const StageContext&) -> std::any {
        ranA = order.fetch_add(1);
        return std::string("value-a");
    };
    Stage b = simpleStage("b", {"a"}, "digest-b");
    b.attempt = [&](const StageContext&) -> std::any {
        ranB = order.fetch_add(1);
        return std::any{};
    };
    graph.add(std::move(a));
    graph.add(std::move(b));

    auto bus = std::make_shared<RecordingSubscriber>();
    FlowEventBus events;
    events.subscribe(bus);
    StageGraphExecutor executor(ExecutorConfig{}, &events, nullptr);
    executor.execute(graph);
    EXPECT_EQ(bus->count(FlowEventKind::StageBegin), 2u);
    EXPECT_EQ(bus->find(FlowEventKind::StageBegin, "a").stage, "a");
    EXPECT_EQ(bus->find(FlowEventKind::StageBegin, "b").stage, "b");
    EXPECT_LT(ranA, ranB);  // dependency respected
    EXPECT_EQ(bus->find(FlowEventKind::StageCommit, "a").detail, "digest-a");
    EXPECT_EQ(bus->find(FlowEventKind::StageCommit, "b").detail, "digest-b");
    EXPECT_EQ(bus->find(FlowEventKind::StageCommit, "a").attempt, 1u);
    EXPECT_EQ(executor.stats().stageRetries, 0u);
    EXPECT_EQ(executor.stats().stageTimeouts, 0u);
}

TEST(StageGraphExecutorTest, FirstErrorPropagatesAndDependentsNeverRun) {
    StageGraph graph;
    graph.add(simpleStage("a", {}));
    Stage b = simpleStage("b", {"a"});
    b.attempt = [](const StageContext&) -> std::any {
        throw Error("stage b exploded");
    };
    graph.add(std::move(b));
    bool cRan = false;
    Stage c = simpleStage("c", {"b"});
    c.attempt = [&](const StageContext&) -> std::any {
        cRan = true;
        return std::any{};
    };
    graph.add(std::move(c));

    auto bus = std::make_shared<RecordingSubscriber>();
    FlowEventBus events;
    events.subscribe(bus);
    StageGraphExecutor executor(ExecutorConfig{}, &events, nullptr);
    try {
        executor.execute(graph);
        FAIL() << "expected the stage error to propagate";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("stage b exploded"), std::string::npos);
    }
    EXPECT_FALSE(cRan);
    EXPECT_EQ(bus->count(FlowEventKind::StageFailed), 1u);
    ASSERT_FALSE(bus->events.empty());
    EXPECT_EQ(bus->events.back().kind, FlowEventKind::FlowEnd);
    EXPECT_EQ(bus->events.back().detail, "failed");
}

TEST(StageGraphExecutorTest, AbsorbedFailureDegradesButDependentsStillRun) {
    StageGraph graph;
    Stage flaky = simpleStage("flaky", {});
    flaky.attempt = [](const StageContext&) -> std::any {
        throw Error("not transient, not retried");
    };
    flaky.absorbFailure = [](const std::exception& e, const StageRun&) {
        return std::string("degraded: ") + e.what();
    };
    graph.add(std::move(flaky));
    bool downstreamRan = false;
    Stage downstream = simpleStage("downstream", {"flaky"});
    downstream.attempt = [&](const StageContext&) -> std::any {
        downstreamRan = true;
        return std::any{};
    };
    graph.add(std::move(downstream));

    auto bus = std::make_shared<RecordingSubscriber>();
    FlowEventBus events;
    events.subscribe(bus);
    StageGraphExecutor executor(ExecutorConfig{}, &events, nullptr);
    executor.execute(graph);
    EXPECT_NE(bus->find(FlowEventKind::StageDegraded, "flaky").detail.find("degraded"),
              std::string::npos);
    EXPECT_TRUE(downstreamRan);
    EXPECT_EQ(bus->count(FlowEventKind::StageDegraded), 1u);
    EXPECT_EQ(bus->count(FlowEventKind::StageFailed), 0u);
}

TEST(StageGraphExecutorTest, TransientFailureRetriesWithEvents) {
    StageGraph graph;
    Stage flaky = simpleStage("flaky", {}, "d");
    flaky.attempt = [](const StageContext& context) -> std::any {
        if (context.attempt == 1) {
            throw HlsError("transient hiccup");
        }
        return std::any{};
    };
    graph.add(std::move(flaky));

    auto bus = std::make_shared<RecordingSubscriber>();
    FlowEventBus events;
    events.subscribe(bus);
    ExecutorConfig config;
    config.stagePolicy.backoffBaseMs = 0.1;
    StageGraphExecutor executor(config, &events, nullptr);
    executor.execute(graph);
    EXPECT_EQ(bus->find(FlowEventKind::StageCommit, "flaky").attempt, 2u);
    EXPECT_EQ(executor.stats().stageRetries, 1u);
    EXPECT_EQ(bus->count(FlowEventKind::StageRetry), 1u);
    EXPECT_EQ(bus->count(FlowEventKind::StageCommit), 1u);
}

// ---------------------------------------------------------------------------
// StageSupervisor: backoff jitter and the retry wall-clock cap

TEST(StageSupervisorPolicy, BackoffJitterIsDeterministicAndDecorrelated) {
    StagePolicy policy;
    policy.backoffBaseMs = 8.0;
    policy.backoffFactor = 2.0;
    policy.jitterFraction = 0.25;

    // Same (seed, stage, attempt) -> bit-identical delay, every call.
    EXPECT_DOUBLE_EQ(StageSupervisor::backoffDelayMs(policy, "synth", 1),
                     StageSupervisor::backoffDelayMs(policy, "synth", 1));

    // Every delay stays inside the jitter envelope around the nominal
    // exponential schedule base * factor^(attempt-1).
    double nominal = policy.backoffBaseMs;
    for (int attempt = 1; attempt <= 5; ++attempt, nominal *= policy.backoffFactor) {
        const double delay = StageSupervisor::backoffDelayMs(policy, "synth", attempt);
        EXPECT_GE(delay, nominal * (1.0 - policy.jitterFraction));
        EXPECT_LE(delay, nominal * (1.0 + policy.jitterFraction));
    }

    // Decorrelation, the thundering-herd defence: two tenants (different
    // policy seeds) retrying the same stage, and one tenant retrying two
    // different stages, must not back off in lockstep.
    StagePolicy otherSeed = policy;
    otherSeed.seed = policy.seed + 1;
    bool seedsDiffer = false;
    bool stagesDiffer = false;
    for (int attempt = 1; attempt <= 5; ++attempt) {
        seedsDiffer |= StageSupervisor::backoffDelayMs(policy, "synth", attempt) !=
                       StageSupervisor::backoffDelayMs(otherSeed, "synth", attempt);
        stagesDiffer |= StageSupervisor::backoffDelayMs(policy, "synth", attempt) !=
                        StageSupervisor::backoffDelayMs(policy, "integrate", attempt);
    }
    EXPECT_TRUE(seedsDiffer);
    EXPECT_TRUE(stagesDiffer);

    // jitterFraction 0 degenerates to the exact exponential schedule.
    StagePolicy plain = policy;
    plain.jitterFraction = 0.0;
    EXPECT_DOUBLE_EQ(StageSupervisor::backoffDelayMs(plain, "synth", 1), 8.0);
    EXPECT_DOUBLE_EQ(StageSupervisor::backoffDelayMs(plain, "synth", 3), 32.0);
}

TEST(StageSupervisorPolicy, RetryWallClockCapBoundsTotalRetryTime) {
    StagePolicy policy;
    policy.maxAttempts = 1000;  // the attempt budget alone would retry ~forever
    policy.backoffBaseMs = 25.0;
    policy.backoffFactor = 1.0;
    policy.jitterFraction = 0.0;
    policy.maxRetryWallClockMs = 80.0;
    StageSupervisor supervisor(policy);
    StageRun run;
    int calls = 0;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(supervisor.run(
                     "always-flaky",
                     [&calls]() -> int {
                         ++calls;
                         throw HlsError("transient");
                     },
                     &run),
                 HlsError);
    const double elapsedMs = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    EXPECT_GE(calls, 2);            // it did retry...
    EXPECT_LE(calls, 10);           // ...but nowhere near the attempt budget
    EXPECT_EQ(run.attempts, calls);
    // Roughly cap + one attempt + one backoff; far below what 1000
    // attempts x 25 ms would take. Generous bound for slow CI hosts.
    EXPECT_LT(elapsedMs, 2'000.0);
}

// ---------------------------------------------------------------------------
// External scheduler mode: each stage runs on a thread the scheduler
// picks, but the executor still sends one stage at a time, in
// topological order, and waits for it.

/// Minimal conforming scheduler: `workers` threads over one FIFO queue.
class TestPool : public StageScheduler {
public:
    explicit TestPool(unsigned workers) {
        for (unsigned i = 0; i < workers; ++i) {
            threads_.emplace_back([this] { loop(); });
        }
    }
    ~TestPool() override {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        for (std::thread& thread : threads_) {
            thread.join();
        }
    }
    void submit(std::function<void()> task) override {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(task));
        }
        cv_.notify_all();
    }

private:
    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        while (true) {
            cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;
            }
            std::function<void()> task = std::move(queue_.front());
            queue_.pop_front();
            lock.unlock();
            task();
            lock.lock();
        }
    }
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool done_ = false;
    std::vector<std::thread> threads_;
};

TEST(StageGraphExecutorTest, ExternalSchedulerRunsAllStagesInOrder) {
    TestPool scheduler(1);
    std::vector<std::string> order;
    std::mutex orderMutex;
    StageGraph graph;
    for (const char* name : {"a", "b", "c"}) {
        Stage stage = simpleStage(name, name == std::string("a")
                                            ? std::vector<std::string>{}
                                            : std::vector<std::string>{"a"});
        stage.attempt = [&, name](const StageContext&) -> std::any {
            const std::lock_guard<std::mutex> lock(orderMutex);
            order.emplace_back(name);
            return std::any{};
        };
        graph.add(std::move(stage));
    }
    ExecutorConfig config;
    config.scheduler = &scheduler;
    auto table = std::make_shared<StageTableSubscriber>();
    FlowEventBus events;
    events.subscribe(table);
    StageGraphExecutor executor(config, &events, nullptr);
    executor.execute(graph);
    const auto rows = table->orderedRows(graph.topologicalNames());
    ASSERT_EQ(rows.size(), 3u);
    for (const auto& row : rows) {
        EXPECT_TRUE(row.committed) << row.stage;
    }
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "a");  // the dependency always runs first

    // Errors propagate identically in external mode.
    StageGraph failing;
    Stage bad = simpleStage("bad", {});
    bad.attempt = [](const StageContext&) -> std::any {
        throw DslError("broken input");
    };
    failing.add(std::move(bad));
    failing.add(simpleStage("never", {"bad"}));
    StageGraphExecutor failingExecutor(config, nullptr, nullptr);
    EXPECT_THROW(failingExecutor.execute(failing), DslError);
}

TEST(StageGraphExecutorTest, SchedulerWithTwoWorkersStillRunsOneStageAtATime) {
    // Three independent siblings and a join: a scheduler with a free
    // second worker must still see one stage at a time, in topological
    // order, because the flow sends the next stage only when the last
    // one finished.
    TestPool scheduler(2);
    std::mutex mutex;
    std::vector<std::string> order;
    int inFlight = 0;
    int peak = 0;
    StageGraph graph;
    for (const char* name : {"left", "middle", "right", "join"}) {
        Stage stage = simpleStage(name, name == std::string("join")
                                            ? std::vector<std::string>{"left", "middle",
                                                                       "right"}
                                            : std::vector<std::string>{});
        stage.attempt = [&, name](const StageContext&) -> std::any {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                order.emplace_back(name);
                peak = std::max(peak, ++inFlight);
            }
            // Long enough for a second worker to pick up a sibling if
            // one had been sent.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            const std::lock_guard<std::mutex> lock(mutex);
            --inFlight;
            return std::any{};
        };
        graph.add(std::move(stage));
    }
    ExecutorConfig config;
    config.scheduler = &scheduler;
    StageGraphExecutor executor(config, nullptr, nullptr);
    executor.execute(graph);
    EXPECT_EQ(peak, 1);
    EXPECT_EQ(order, graph.topologicalNames());
}

TEST(StageGraphExecutorTest, TaskDroppedBySchedulerFailsTheFlow) {
    struct Dropping : StageScheduler {
        void submit(std::function<void()>) override {}
    } scheduler;
    StageGraph graph;
    graph.add(simpleStage("lost", {}));
    ExecutorConfig config;
    config.scheduler = &scheduler;
    StageGraphExecutor executor(config, nullptr, nullptr);
    EXPECT_THROW(executor.execute(graph), std::future_error);
}

} // namespace
} // namespace socgen::core
