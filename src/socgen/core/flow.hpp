#pragma once

#include "socgen/core/artifact_store.hpp"
#include "socgen/core/diagnostics.hpp"
#include "socgen/core/event_bus.hpp"
#include "socgen/core/htg.hpp"
#include "socgen/core/journal.hpp"
#include "socgen/core/remote_hls.hpp"
#include "socgen/core/stage_graph.hpp"
#include "socgen/core/supervisor.hpp"
#include "socgen/core/synth_gate.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/sim/fault.hpp"
#include "socgen/soc/bitstream.hpp"
#include "socgen/soc/block_design.hpp"
#include "socgen/soc/synthesis.hpp"
#include "socgen/sw/boot.hpp"
#include "socgen/sw/drivers.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace socgen::core {

/// Shared in-memory HLS result cache: the paper generates each hardware
/// core only once across the four case-study architectures ("for
/// efficiency, we first generated Arch4 that has all the functions
/// implemented in hardware"). Keyed by the same content key as the
/// persistent ArtifactStore — a digest of (kernel source, directives,
/// device, tool version) — so a lookup can never return a result
/// synthesized under different directives or for a different part.
/// Thread-safe: find() returns a copy, never a pointer into the map, so
/// a hit stays valid while concurrent stages insert.
class HlsCache {
public:
    [[nodiscard]] std::optional<hls::HlsResult> find(const std::string& key) const;
    void store(const std::string& key, hls::HlsResult result);
    [[nodiscard]] std::size_t size() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, hls::HlsResult> results_;
};

/// What the flow does when HLS fails for one node. Degrade isolates the
/// failure: the node is dropped from the hardware design (its links are
/// rewired to the PS so partner cores stay connected) and recorded in
/// FlowDiagnostics as a software-fallback candidate; the flow completes.
/// Configuration errors (DslError) always abort regardless of policy —
/// they indicate a broken project, not a flaky tool.
enum class HlsFailurePolicy { Abort, Degrade };

struct FlowOptions {
    soc::FpgaDevice device = soc::zedboard();
    soc::DmaPolicy dmaPolicy = soc::DmaPolicy::SharedDma;
    /// Worker threads over the whole stage graph: per-node HLS runs AND
    /// independent downstream stages (device tree / drivers alongside
    /// synthesis) execute concurrently. Overridable via the
    /// SOCGEN_FLOW_JOBS environment variable.
    unsigned jobs = 1;
    bool runSynthesis = true;     ///< stop after integration when false
    bool generateSoftware = true;
    std::string outputDir;        ///< write artifacts when non-empty

    hls::Directives defaultDirectives;
    /// Per-kernel directive overrides (trip counts, unit limits, ...).
    std::map<std::string, hls::Directives> kernelDirectives;

    HlsFailurePolicy hlsFailurePolicy = HlsFailurePolicy::Degrade;
    /// Fault hook: kernels listed here fail HLS with an injected HlsError
    /// on every attempt (bypassing the cache), exercising retry
    /// exhaustion and the degrade path in tests.
    std::set<std::string> injectHlsFailures;
    /// Fault hook: kernel -> number of initial HLS attempts that fail
    /// before one succeeds, exercising the retry-recovers path.
    std::map<std::string, unsigned> transientHlsFailures;

    /// Tool identity folded into artifact keys: bumping it invalidates
    /// every stored artifact, like moving to a new Vivado release.
    std::string toolVersion = "socgen-hls-1";

    /// Retry/deadline policy applied to every supervised flow stage.
    StagePolicy stagePolicy;

    /// Flow-level fault events (FlowCrash, ArtifactCorrupt, StageHang)
    /// consumed by the flow itself; cycle-level kinds in this plan are
    /// ignored here.
    sim::FaultPlan flowFaults;

    /// Write a chrome://tracing / Perfetto JSON timeline of the stage
    /// graph here when non-empty (one span per stage, worker as tid).
    std::string traceOutPath;

    /// Model the external vendor tools' wall-clock cost: each stage
    /// attempt blocks for its simulated tool-seconds times this many
    /// milliseconds, standing in for the subprocess wait (a real Vivado
    /// run is minutes of blocked wall-clock, not host CPU). Reused HLS
    /// artifacts never wait — a cache or store hit means the tool never
    /// ran. 0 disables the wait; like `jobs`, the knob is excluded from
    /// the flow fingerprint because it cannot change any output.
    double toolLatencyMsPerToolSecond = 0.0;

    /// Extra event-bus subscribers attached for the run, after the
    /// built-in log/table/trace subscribers.
    std::vector<std::shared_ptr<FlowEventSubscriber>> subscribers;

    /// Shared persistent artifact store. When set, the flow uses it
    /// instead of creating a private store under outputDir — the flow
    /// service points every tenant at one store so identical HLS work
    /// is paid for once across the fleet. Content-addressed keys make
    /// this safe: a hit is valid no matter which tenant produced it.
    std::shared_ptr<ArtifactStore> sharedStore;

    /// In-flight synthesis dedupe across concurrent flows (see
    /// SynthGate). Only useful together with a shared store or cache;
    /// nullptr disables gating (single-flow runs need none).
    std::shared_ptr<SynthGate> synthGate;

    /// External stage scheduler: when set, the executor submits ready
    /// stages to it instead of spawning a private worker pool and
    /// `jobs` is ignored — the service's shared pool owns concurrency
    /// and cross-tenant fairness.
    std::shared_ptr<StageScheduler> stageScheduler;

    /// Out-of-process synthesis: when set, HLS attempts dispatch to this
    /// executor (the service's worker fleet) instead of the in-process
    /// engine. WorkerUnavailableError from the executor degrades the
    /// attempt back to in-process synthesis — the fleet accelerates and
    /// crash-isolates, it never gates correctness.
    std::shared_ptr<RemoteHlsExecutor> remoteHls;
};

/// Everything one flow run produces — the contents of the generated
/// project directory.
struct FlowResult {
    std::string projectName;
    TaskGraph graph;
    std::string dslText;   ///< canonical DSL rendering (the §VI-C numerator)
    std::map<std::string, hls::HlsResult> hlsResults;
    std::map<std::string, hls::Program> programs;
    soc::BlockDesign design{"uninitialised"};
    std::string tclText;   ///< generated Vivado script (the §VI-C denominator)
    soc::SynthesisResult synthesis;
    soc::Bitstream bitstream;
    std::string deviceTree;
    std::vector<sw::GeneratedFile> driverFiles;
    sw::BootImage bootImage;
    FlowDiagnostics diagnostics;
};

/// The flow orchestrator behind the DSL: HLS per node, system
/// integration, synthesis/bitstream, and software generation — the
/// right-hand side of the paper's Figure 3 — declared as a stage graph
/// and executed by the generic StageGraphExecutor, which owns journaling,
/// supervision, fault hooks, event publication and the worker pool.
///
/// The graph: scala → hls:<node> (one stage per node) → integrate →
/// {synth, devicetree, drivers} in parallel → boot(synth, devicetree) →
/// artifacts. `jobs` governs concurrency across the whole graph, not
/// just the HLS fan-out.
///
/// Crash recovery: when `outputDir` is set, the flow keeps a journal
/// (`outputDir/.socgen/journal/<project>.jsonl`) recording each stage's
/// begin/commit, and a content-addressed artifact store
/// (`outputDir/.socgen/store`) holding every synthesized HLS core. A
/// re-run after a crash reloads committed cores from the store (zero
/// re-synthesis), re-executes the cheap deterministic stages, and
/// verifies their outputs against the journal's committed digests.
class Flow {
public:
    Flow(FlowOptions options, const hls::KernelLibrary& kernels,
         std::shared_ptr<HlsCache> cache = nullptr);

    /// Runs the complete flow on a validated task graph.
    [[nodiscard]] FlowResult run(const std::string& projectName, const TaskGraph& graph);

    /// Runs HLS for a single node (used by the step-by-step DSL execution;
    /// consults/updates the cache and the artifact store). Returns the
    /// result and the tool time charged (0 on cache or store hit).
    [[nodiscard]] std::pair<hls::HlsResult, double> synthesizeNode(const TgNode& node);

    [[nodiscard]] const FlowOptions& options() const { return options_; }

    /// The persistent artifact store backing this flow (nullptr when
    /// `outputDir` is empty).
    [[nodiscard]] const ArtifactStore* artifactStore() const { return store_.get(); }

private:
    struct Integration {
        soc::BlockDesign design{"uninitialised"};
        std::string tclText;
    };

    /// Outcome of one HLS attempt body: the result plus where it came
    /// from, as the HlsOutcome the commit records. Produced inside the
    /// supervised attempt (pure — no shared writes); consumed by the
    /// commit phase, which persists the result and publishes the reuse
    /// events exactly once. A non-zero `leaseEpoch` makes the commit use
    /// ArtifactStore::storeFenced, which rejects zombie commits.
    struct HlsAttemptOut : FlowDiagnostics::HlsOutcome {
        hls::HlsResult result;
        bool fromEngine = false;   ///< synthesized by the engine this attempt
        std::string rejectedWhy;   ///< non-empty: a stored object failed validation
        bool quarantined = false;  ///< the rejected object was quarantined
        /// SynthGate leadership token, held until this value is
        /// destroyed after the commit persisted the result — so waiting
        /// followers wake to a store hit, and an exception on any path
        /// releases leadership via the token's deleter.
        std::shared_ptr<void> gateToken;
    };

    [[nodiscard]] hls::Directives directivesFor(const TgNode& node) const;
    /// Directives for one process of a network node. Lookup order:
    /// kernelDirectives["node/process"] (per-process override), then
    /// kernelDirectives["node"], then the flow default. Channel-connected
    /// ports are forced AXI-Stream; exported ports inherit the protocol
    /// the DSL declared on their network port.
    [[nodiscard]] hls::Directives directivesForProcess(const TgNode& node,
                                                       const hls::ProcessNetwork& network,
                                                       const std::string& process) const;
    /// The node's process network (a single kernel registers as a trivial
    /// one-process network); throws DslError when nothing is registered.
    [[nodiscard]] const hls::ProcessNetwork& nodeNetwork(const TgNode& node) const;
    /// Structural network verification plus DSL-port/interface-kind
    /// consistency against the network's external signature.
    void validateNodeInterface(const TgNode& node,
                               const hls::ProcessNetwork& network) const;
    /// Content key of a whole network node: the network fingerprint plus
    /// every per-process artifact key. Not a store key — assembly is
    /// recomputed each run — but the digest the node stage journals.
    [[nodiscard]] std::string networkKeyFor(const TgNode& node,
                                            const hls::ProcessNetwork& network) const;
    [[nodiscard]] std::string flowFingerprint(const std::string& projectName,
                                              const TaskGraph& graph) const;
    /// The supervised HLS attempt body: validate, consult cache/store,
    /// synthesize on miss. Never writes shared state.
    [[nodiscard]] HlsAttemptOut hlsAttempt(const TgNode& node);
    /// Kernel-granular attempt body shared by single-kernel nodes and the
    /// per-process stages of a network node. `label` names the work in
    /// logs and fault hooks ("node" or "node/process"); `stageName` is
    /// the journal stage consulted for resume attribution; `nodeName`
    /// lets node-scoped fault injections hit every process of the node.
    [[nodiscard]] HlsAttemptOut hlsKernelAttempt(const hls::Kernel& kernel,
                                                 const hls::Directives& directives,
                                                 const std::string& label,
                                                 const std::string& stageName,
                                                 const std::string& nodeName);
    /// The HLS commit half: persists an engine result to the cache and
    /// the store (winning attempt only).
    void hlsPersist(const HlsAttemptOut& out);
    [[nodiscard]] Integration integrate(const std::string& projectName,
                                        const TaskGraph& graph, const FlowResult& result,
                                        const std::set<std::string>& degraded) const;
    /// Writes the project directory; `stages` are the rows of the
    /// report's stage timeline.
    void writeArtifacts(const FlowResult& result,
                        const std::vector<FlowDiagnostics::StageOutcome>& stages) const;

    /// True if an injected transient failure should fire for `kernel`
    /// (decrements the per-kernel budget).
    [[nodiscard]] bool consumeTransientFailure(const std::string& kernel);

    /// Blocks for `toolSeconds` × options_.toolLatencyMsPerToolSecond
    /// milliseconds — the simulated external-tool wait. No-op at 0.
    void simulateToolWait(double toolSeconds) const;

    FlowOptions options_;
    const hls::KernelLibrary& kernels_;
    std::shared_ptr<HlsCache> cache_;
    hls::HlsEngine engine_;
    std::shared_ptr<ArtifactStore> store_;

    /// Flow-level fault delivery (crash/hang/corrupt), consumed by the
    /// stage-graph executor and stage postCommit hooks.
    StageFaultHooks faultHooks_;
    std::mutex faultMutex_;
    std::map<std::string, unsigned> transientRemaining_;

    // Per-run journal state (valid only inside run()).
    std::set<std::string> committedAtOpen_;
    std::map<std::string, std::string> digestsAtOpen_;
};

} // namespace socgen::core
