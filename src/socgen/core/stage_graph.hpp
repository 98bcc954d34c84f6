#pragma once

#include "socgen/core/event_bus.hpp"
#include "socgen/core/journal.hpp"
#include "socgen/core/supervisor.hpp"
#include "socgen/sim/fault.hpp"

#include <any>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace socgen::core {

/// Passed to a stage's attempt callback. `attempt` is 1-based and counts
/// supervised attempts including the current one, so a body can record
/// "how many tries this took" without owning a counter.
struct StageContext {
    int attempt = 1;
};

/// What a finished stage reports back to the executor.
struct StageOutput {
    std::string digest;          ///< committed to the journal ("" = skip commit)
    double toolSeconds = 0.0;    ///< simulated tool time, published on commit
};

/// One node of the flow graph. Execution is split in two so supervision
/// stays safe under abandoned (timed-out) attempts:
///
///  - `attempt` runs under the supervisor's retry/deadline policy and may
///    execute concurrently with an abandoned sibling of itself, so it
///    must not mutate shared state — compute and return.
///  - `commit` runs exactly once, on the winning attempt's value, and is
///    where results land in shared structures (the executor establishes
///    a happens-before edge to every dependent stage).
///
/// `absorbFailure`, when set, may convert a post-retry failure into a
/// completed-without-commit stage (returning a non-empty journal note);
/// returning "" propagates the error. `postCommit` runs after the commit
/// record is durably appended — the hook point for artifact-corruption
/// fault injection.
struct Stage {
    std::string name;
    std::vector<std::string> deps;
    std::function<std::any(const StageContext&)> attempt;
    std::function<StageOutput(std::any&&, const StageRun&)> commit;
    std::function<std::string(const std::exception&, const StageRun&)> absorbFailure{};
    std::function<void()> postCommit{};
    /// Count a journal-verified re-execution in resumedStages (the HLS
    /// stages opt out: their resume is tracked per node instead).
    bool trackResume = true;
};

/// Declarative DAG of flow stages. Insertion order is significant: the
/// topological order is Kahn's algorithm with an insertion-ordered ready
/// set, so it is total, deterministic, and — for a linear chain — equal
/// to insertion order. Validation (duplicate names, unknown deps,
/// cycles) throws StageGraphError.
class StageGraph {
public:
    Stage& add(Stage stage);

    [[nodiscard]] const std::vector<Stage>& stages() const { return stages_; }
    [[nodiscard]] bool has(const std::string& name) const;

    /// Indices into stages() in deterministic topological order.
    [[nodiscard]] std::vector<std::size_t> topologicalOrder() const;

    /// Stage names in topological order (convenience for tables).
    [[nodiscard]] std::vector<std::string> topologicalNames() const;

private:
    std::vector<Stage> stages_;
    std::map<std::string, std::size_t> index_;
};

/// Flow-level fault delivery, extracted from Flow: one-shot FlowCrash /
/// StageHang / ArtifactCorrupt events from a sim::FaultPlan, consumed by
/// the executor (crash, hang) and by stage postCommit hooks (corrupt).
/// Thread-safe; every event fires at most once.
class StageFaultHooks {
public:
    StageFaultHooks() = default;
    explicit StageFaultHooks(const sim::FaultPlan& plan);

    /// Throws FlowCrashError if a FlowCrash event is armed for this
    /// (stage, phase) boundary (0 = at begin, 1 = pre-commit).
    void maybeCrash(const std::string& stage, std::uint64_t phase);

    /// Sleeps if a StageHang event is armed for `stage`.
    void maybeHang(const std::string& stage);

    /// True if an ArtifactCorrupt event was armed for `target` (the
    /// caller applies the corruption; the event is consumed).
    [[nodiscard]] bool consumeCorrupt(const std::string& target);

    [[nodiscard]] bool empty() const;

private:
    mutable std::mutex mutex_;
    std::vector<sim::FaultEvent> pending_;
};

/// Sink for ready-to-run stage tasks, letting many executors — one per
/// concurrently running flow — share a single worker pool (the
/// flow-service deployment). submit() must eventually run the task
/// exactly once on some thread; the submitting executor blocks in
/// execute() until every task it submitted has finished, so a scheduler
/// must drain on shutdown, never drop.
class StageScheduler {
public:
    virtual ~StageScheduler() = default;
    virtual void submit(std::function<void()> task) = 0;
};

struct ExecutorConfig {
    unsigned jobs = 1;              ///< worker threads over the whole graph
    StagePolicy stagePolicy;        ///< retry/backoff/deadline per stage
    FlowJournal* journal = nullptr; ///< nullable: journaling off
    /// External scheduler: when set, ready stages are submitted here
    /// instead of a private worker pool and `jobs` is ignored — the
    /// scheduler owns concurrency (and fairness across flows).
    StageScheduler* scheduler = nullptr;
    /// Digests committed by a previous run (journal resume): re-executed
    /// stages are verified against these at commit-flush time.
    std::map<std::string, std::string> digestsAtOpen;
};

/// Deterministic aggregate counters of one execution.
struct ExecutorStats {
    std::size_t stageRetries = 0;
    std::size_t stageTimeouts = 0;
    std::size_t resumedStages = 0;
    std::size_t digestMismatches = 0;
};

/// Result record of one stage's execution.
struct StageExecution {
    StageOutput output;
    double hostMs = 0.0;
    StageRun meta;
    bool ran = false;       ///< stage reached execution (false = flow aborted first)
    bool absorbed = false;  ///< failure absorbed; `absorbedNote` journaled
    std::string absorbedNote;
};

/// Generic DAG executor owning — once, not per stage — journaling,
/// supervision, fault hooks, event publication and the worker pool.
///
/// Execution contract:
///  - `begin` journal records for every stage land up front, in
///    topological order (write-ahead), before any stage runs;
///  - any stage whose dependencies completed may run; with jobs=1 the
///    execution order is exactly the topological order;
///  - commit records are flushed in topological order over the longest
///    completed prefix, so the final journal is byte-identical for any
///    `jobs` setting (a crash can only lose trailing commits, which the
///    next run re-derives from the artifact store);
///  - the first error (lowest topological rank) aborts scheduling,
///    already-running stages finish, and the error is rethrown.
class StageGraphExecutor {
public:
    StageGraphExecutor(ExecutorConfig config, FlowEventBus* bus,
                       StageFaultHooks* hooks);

    /// Runs the graph; returns one StageExecution per graph stage
    /// (indexed like graph.stages()). Throws the first stage error.
    std::vector<StageExecution> execute(const StageGraph& graph);

    [[nodiscard]] const ExecutorStats& stats() const { return stats_; }

private:
    struct RunState;

    void runStage(RunState& state, std::size_t index, unsigned worker);
    void flushCommitted(RunState& state);
    /// Submits every unscheduled ready stage to the external scheduler
    /// (caller holds state.mutex; external-pool mode only).
    void submitReady(RunState& state);

    ExecutorConfig config_;
    FlowEventBus* bus_;
    StageFaultHooks* hooks_;
    ExecutorStats stats_;
};

} // namespace socgen::core
