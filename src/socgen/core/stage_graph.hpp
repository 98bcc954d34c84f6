#pragma once

#include "socgen/core/event_bus.hpp"
#include "socgen/core/journal.hpp"
#include "socgen/core/supervisor.hpp"
#include "socgen/sim/fault.hpp"

#include <any>
#include <cstddef>
#include <exception>
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
///    where results land in shared structures (stages run one at a
///    time, so a commit needs no lock against other stages).
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

/// Where a flow's stages run when the flow does not run them on its own
/// thread: the flow service points every tenant's flows at one shared
/// pool. submit() must eventually run the task exactly once on some
/// thread. The executor submits one stage, waits for it to finish, then
/// submits the next, so a scheduler picks only the thread; it never runs
/// two stages of one flow at once. A dropped task fails the flow (the
/// waiting executor sees a broken promise), so a scheduler must drain on
/// shutdown.
class StageScheduler {
public:
    virtual ~StageScheduler() = default;
    virtual void submit(std::function<void()> task) = 0;
};

struct ExecutorConfig {
    StagePolicy stagePolicy;        ///< retry/backoff/deadline per stage
    FlowJournal* journal = nullptr; ///< nullable: journaling off
    /// When set, each stage runs on a thread this scheduler picks instead
    /// of the caller's; the stages still run one at a time, in order.
    StageScheduler* scheduler = nullptr;
    /// Digests committed by a previous run (journal resume): re-executed
    /// stages are verified against these as they commit.
    std::map<std::string, std::string> digestsAtOpen;
};

/// Deterministic aggregate counters of one execution.
struct ExecutorStats {
    std::size_t stageRetries = 0;
    std::size_t stageTimeouts = 0;
    std::size_t resumedStages = 0;
    std::size_t digestMismatches = 0;
};

/// Generic DAG executor owning — once, not per stage — journaling,
/// supervision, fault hooks and event publication.
///
/// Execution contract (serial):
///  - `begin` journal records for every stage land up front, in
///    topological order (write-ahead), before any stage runs;
///  - the stages then run one at a time in topologicalOrder(), each
///    commit record appended as soon as its stage finishes, so a crash
///    can only lose the commits of stages that had not finished;
///  - the first unabsorbed error stops the run: no later stage starts,
///    and the error is rethrown.
class StageGraphExecutor {
public:
    StageGraphExecutor(ExecutorConfig config, FlowEventBus* bus,
                       StageFaultHooks* hooks);

    /// Runs the graph; each stage's outcome reaches the event bus.
    /// Throws the first stage error.
    void execute(const StageGraph& graph);

    [[nodiscard]] const ExecutorStats& stats() const { return stats_; }

private:
    /// What a finished stage leaves for record().
    struct Finished {
        StageOutput output;
        std::string absorbedNote;  ///< non-empty: failure absorbed, note journaled
    };

    /// Runs one stage under supervision and publishes its outcome.
    /// Returns the error that stops the flow, or nullptr.
    std::exception_ptr runStage(const Stage& stage, Finished& done);
    /// Journals a finished stage (commit or degrade note), verifies a
    /// resumed stage's digest, then runs its postCommit hook.
    void record(const Stage& stage, const Finished& done);

    ExecutorConfig config_;
    FlowEventBus* bus_;
    StageFaultHooks* hooks_;
    ExecutorStats stats_;
};

} // namespace socgen::core
