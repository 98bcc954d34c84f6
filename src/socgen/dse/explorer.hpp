#pragma once

#include "socgen/core/flow.hpp"
#include "socgen/core/htg.hpp"
#include "socgen/hls/resources.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace socgen::dse {

/// One directive configuration of a DSE sweep: per-kernel HLS directives
/// layered over the explorer's base options. Kernels not named keep the
/// base directives.
struct DirectiveVariant {
    std::string name;  ///< project-name suffix ("base", "unroll4", ...)
    std::map<std::string, hls::Directives> kernelDirectives;
};

/// What one evaluated variant cost: the full flow result plus the reuse
/// counters that show how much work the shared cache/store saved.
struct VariantOutcome {
    std::string name;
    core::FlowResult result;
    std::size_t engineRuns = 0;   ///< kernels actually synthesized this run
    std::size_t cacheHits = 0;    ///< kernels served from the shared cache
    std::size_t storeHits = 0;    ///< kernels served from the artifact store
    double toolSeconds = 0.0;     ///< simulated tool time of the whole flow
};

/// Directive-space explorer built on the stage-graph flow engine: every
/// variant runs through core::Flow (and therefore the StageGraphExecutor),
/// and all variants share one HlsCache and — when `outputDir` is set —
/// one content-addressed ArtifactStore. Because artifact keys digest
/// (kernel, directives, device, tool version), evaluating a variant
/// re-synthesizes exactly the kernels whose directives changed; everything
/// else is a cache or store hit with zero tool time.
class Explorer {
public:
    Explorer(core::FlowOptions base, const hls::KernelLibrary& kernels,
             std::shared_ptr<core::HlsCache> cache = nullptr);

    /// Runs the flow for one variant (project name `<project>_<variant>`).
    [[nodiscard]] VariantOutcome evaluate(const std::string& project,
                                          const core::TaskGraph& graph,
                                          const DirectiveVariant& variant);

    /// Evaluates every variant in order against the shared cache/store.
    [[nodiscard]] std::vector<VariantOutcome> sweep(
        const std::string& project, const core::TaskGraph& graph,
        const std::vector<DirectiveVariant>& variants);

    /// The cache shared by every evaluated variant.
    [[nodiscard]] const std::shared_ptr<core::HlsCache>& cache() const { return cache_; }

private:
    core::FlowOptions base_;
    const hls::KernelLibrary& kernels_;
    std::shared_ptr<core::HlsCache> cache_;
};

/// One evaluated design point of the HW/SW-partitioning space. The paper
/// leaves DSE integration as future work (Section II-C); this module
/// implements the exhaustive explorer the case study calls for: every
/// subset of the partitionable units, evaluated for PL resources and
/// simulated end-to-end execution time.
struct DsePoint {
    unsigned mask = 0;              ///< bit i = unit i mapped to hardware
    std::string label;              ///< e.g. "HW{histogram,otsuMethod}"
    core::HtgPartition partition;
    hls::ResourceEstimate resources;
    std::uint64_t cycles = 0;       ///< simulated execution cycles
    bool feasible = true;           ///< fits the device / runnable
    std::string infeasibleReason;
};

/// Evaluator callback: builds/synthesizes/simulates the architecture for
/// one mask. Expected to set everything except `mask`.
using DseEvaluator = std::function<DsePoint(unsigned mask)>;

/// Exhaustively evaluates all 2^unitCount partitions (unitCount <= 20).
/// Evaluator exceptions mark the point infeasible instead of aborting the
/// sweep.
[[nodiscard]] std::vector<DsePoint> exploreExhaustive(unsigned unitCount,
                                                      const DseEvaluator& evaluate);

/// Pareto-optimal subset under (minimise LUT, minimise cycles) among
/// feasible points; returned sorted by LUT ascending.
[[nodiscard]] std::vector<DsePoint> paretoFront(const std::vector<DsePoint>& points);

/// Result of a heuristic exploration: the accepted trajectory plus every
/// point that was evaluated along the way.
struct GreedyResult {
    std::vector<DsePoint> evaluated;   ///< all evaluations, in order
    std::vector<unsigned> trajectory;  ///< accepted masks, starting at 0
    DsePoint best;                     ///< final accepted point
};

/// Greedy hill climbing over the partition lattice (the class of
/// heuristic DSE the paper defers to [6], [8], [12]): start all-software,
/// repeatedly move the single unit to hardware that most reduces cycles
/// while remaining feasible; stop when no flip improves. Evaluates
/// O(units^2) points instead of 2^units.
[[nodiscard]] GreedyResult exploreGreedy(unsigned unitCount,
                                         const DseEvaluator& evaluate);

/// Formats a sweep as a fixed-width table (mask, label, LUT/FF/BRAM/DSP,
/// cycles, speedup vs the all-software point, Pareto membership).
[[nodiscard]] std::string renderTable(const std::vector<DsePoint>& points);

} // namespace socgen::dse
