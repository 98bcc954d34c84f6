#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace socgen::core {

/// Per-run outcome record of one flow execution, carried by FlowResult so
/// callers can tell a clean all-hardware build from a degraded one and a
/// cold build from a resumed one. Node outcomes describe the per-kernel
/// HLS phase; stage outcomes describe every stage of the flow graph (one
/// row per executed stage, in deterministic topological order), sourced
/// from the FlowEventBus rather than scattered counters.
struct FlowDiagnostics {
    /// What one HLS synthesis produced and where its result came from:
    /// the common record of a single-kernel node and of one process of a
    /// network node.
    struct HlsOutcome {
        bool degraded = false;     ///< HLS failed; needs software fallback
        std::string error;         ///< failure text when degraded
        double toolSeconds = 0.0;  ///< simulated tool time charged this run
        unsigned attempts = 0;     ///< HLS engine attempts this run (0 = reused)
        bool cacheHit = false;     ///< served from the in-memory HlsCache
        bool storeHit = false;     ///< served from the persistent ArtifactStore
        bool resumedFromJournal = false;  ///< store hit confirmed by a prior
                                          ///< run's journal commit record
        std::string artifactKey;   ///< content key (empty if key not derived)
    };

    /// Per-process outcome of a multi-process network node: each process
    /// is synthesized (and cached) under its own artifact key, so each
    /// gets its own attempt/hit record.
    struct ProcessOutcome : HlsOutcome {
        std::string process;       ///< process name within the node
    };

    struct NodeOutcome : HlsOutcome {
        std::string node;
        /// Per-process records for a multi-process network node; empty
        /// for a trivial (single-kernel) node, whose own fields carry the
        /// story. Node-level hit flags are the conjunction over
        /// processes, attempts the sum.
        std::vector<ProcessOutcome> processes;
    };

    /// One row of the per-stage wall-clock table. Every field except
    /// `hostMs` is deterministic: two runs of the same flow (inline
    /// or on a scheduler) agree on everything but the measured wall time.
    struct StageOutcome {
        std::string stage;         ///< stage name ("scala", "hls:GAUSS", ...)
        unsigned attempts = 0;     ///< supervised attempts (1 = clean first try)
        unsigned timeouts = 0;     ///< attempts abandoned at the deadline
        double toolSeconds = 0.0;  ///< simulated tool time charged
        double hostMs = 0.0;       ///< measured wall time (non-deterministic)
        std::string source;        ///< "ran", "cache hit", "store hit", "degraded"
        bool committed = false;    ///< reached a journal commit record
    };

    std::vector<NodeOutcome> nodes;
    std::vector<StageOutcome> stages;  ///< the one stage record, topological order

    std::size_t stageRetries = 0;      ///< extra attempts across all stages
    std::size_t stageTimeouts = 0;     ///< deadline expiries across all stages
    std::size_t resumedStages = 0;     ///< non-HLS stages re-verified against a
                                       ///< prior run's journal commit
    std::size_t digestMismatches = 0;  ///< journal digest disagreements (should
                                       ///< stay 0 for deterministic flows)
    std::size_t corruptArtifacts = 0;  ///< store objects rejected by validation

    [[nodiscard]] bool anyDegraded() const;
    [[nodiscard]] std::vector<std::string> degradedNodes() const;
    /// Number of nodes actually synthesized by the HLS engine this run.
    [[nodiscard]] std::size_t engineRuns() const;
    [[nodiscard]] std::size_t cacheHits() const;
    [[nodiscard]] std::size_t storeHits() const;
    /// Simulated tool-seconds summed over the stage rows whose name
    /// starts with `prefix` ("hls:" for every HLS stage); the whole run
    /// when empty. Figure 9 groups stages this way.
    [[nodiscard]] double stageToolSeconds(std::string_view prefix = {}) const;

    /// Process-granular counters. A trivial node (no per-process records)
    /// counts as one process so the totals stay comparable whether a node
    /// is a single kernel or a network.
    [[nodiscard]] std::size_t processEngineRuns() const;
    [[nodiscard]] std::size_t processCacheHits() const;
    [[nodiscard]] std::size_t processStoreHits() const;

    /// Renders the per-node lines, the per-stage table and the flow
    /// summary. With `withHostTimes` false (the default) the output is
    /// byte-identical across runs and dispatch modes — the wall-clock
    /// column prints "-"; pass true for the measured milliseconds.
    [[nodiscard]] std::string render(bool withHostTimes = false) const;
};

} // namespace socgen::core
