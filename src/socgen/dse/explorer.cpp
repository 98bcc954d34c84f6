#include "socgen/dse/explorer.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>
#include <sstream>

namespace socgen::dse {

Explorer::Explorer(core::FlowOptions base, const hls::KernelLibrary& kernels,
                   std::shared_ptr<core::HlsCache> cache)
    : base_(std::move(base)), kernels_(kernels),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<core::HlsCache>()) {}

VariantOutcome Explorer::evaluate(const std::string& project,
                                  const core::TaskGraph& graph,
                                  const DirectiveVariant& variant) {
    core::FlowOptions options = base_;
    for (const auto& [kernel, directives] : variant.kernelDirectives) {
        options.kernelDirectives[kernel] = directives;
    }
    core::Flow flow(std::move(options), kernels_, cache_);
    VariantOutcome outcome;
    outcome.name = variant.name;
    outcome.result =
        flow.run(variant.name.empty() ? project : project + "_" + variant.name, graph);
    outcome.engineRuns = outcome.result.diagnostics.engineRuns();
    outcome.cacheHits = outcome.result.diagnostics.cacheHits();
    outcome.storeHits = outcome.result.diagnostics.storeHits();
    outcome.toolSeconds = outcome.result.diagnostics.stageToolSeconds();
    return outcome;
}

std::vector<VariantOutcome> Explorer::sweep(const std::string& project,
                                            const core::TaskGraph& graph,
                                            const std::vector<DirectiveVariant>& variants) {
    std::vector<VariantOutcome> outcomes;
    outcomes.reserve(variants.size());
    for (const auto& variant : variants) {
        outcomes.push_back(evaluate(project, graph, variant));
        const VariantOutcome& last = outcomes.back();
        Logger::global().info(
            format("dse: variant %s: %zu synthesized, %zu cache hit(s), %zu store "
                   "hit(s), %.1f tool-s",
                   last.name.c_str(), last.engineRuns, last.cacheHits, last.storeHits,
                   last.toolSeconds));
    }
    return outcomes;
}

std::vector<DsePoint> exploreExhaustive(unsigned unitCount, const DseEvaluator& evaluate) {
    if (unitCount > 20) {
        throw Error("exhaustive DSE limited to 20 units (2^20 points)");
    }
    std::vector<DsePoint> points;
    const unsigned total = 1u << unitCount;
    points.reserve(total);
    for (unsigned mask = 0; mask < total; ++mask) {
        DsePoint point;
        try {
            point = evaluate(mask);
        } catch (const std::exception& e) {
            point.feasible = false;
            point.infeasibleReason = e.what();
            Logger::global().info(format("dse: mask %u infeasible: %s", mask, e.what()));
        }
        point.mask = mask;
        points.push_back(std::move(point));
    }
    return points;
}

GreedyResult exploreGreedy(unsigned unitCount, const DseEvaluator& evaluate) {
    if (unitCount > 20) {
        throw Error("greedy DSE limited to 20 units");
    }
    GreedyResult result;
    const auto evaluateMask = [&](unsigned mask) {
        DsePoint point;
        try {
            point = evaluate(mask);
        } catch (const std::exception& e) {
            point.feasible = false;
            point.infeasibleReason = e.what();
        }
        point.mask = mask;
        result.evaluated.push_back(point);
        return point;
    };

    DsePoint current = evaluateMask(0);
    if (!current.feasible) {
        throw Error("greedy DSE: the all-software point is infeasible");
    }
    result.trajectory.push_back(0);
    bool improved = true;
    while (improved) {
        improved = false;
        DsePoint bestNeighbour;
        bool haveNeighbour = false;
        for (unsigned unit = 0; unit < unitCount; ++unit) {
            const unsigned candidate = current.mask | (1u << unit);
            if (candidate == current.mask) {
                continue;  // already in hardware
            }
            const DsePoint point = evaluateMask(candidate);
            if (point.feasible && point.cycles < current.cycles &&
                (!haveNeighbour || point.cycles < bestNeighbour.cycles)) {
                bestNeighbour = point;
                haveNeighbour = true;
            }
        }
        if (haveNeighbour) {
            current = bestNeighbour;
            result.trajectory.push_back(current.mask);
            improved = true;
        }
    }
    result.best = current;
    Logger::global().info(format("dse: greedy converged at mask %u after %zu evaluations",
                                 current.mask, result.evaluated.size()));
    return result;
}

std::vector<DsePoint> paretoFront(const std::vector<DsePoint>& points) {
    std::vector<DsePoint> feasible;
    for (const auto& p : points) {
        if (p.feasible) {
            feasible.push_back(p);
        }
    }
    std::vector<DsePoint> front;
    for (const auto& candidate : feasible) {
        const bool dominated = std::any_of(
            feasible.begin(), feasible.end(), [&](const DsePoint& other) {
                const bool noWorse = other.resources.lut <= candidate.resources.lut &&
                                     other.cycles <= candidate.cycles;
                const bool better = other.resources.lut < candidate.resources.lut ||
                                    other.cycles < candidate.cycles;
                return noWorse && better;
            });
        if (!dominated) {
            front.push_back(candidate);
        }
    }
    std::sort(front.begin(), front.end(), [](const DsePoint& a, const DsePoint& b) {
        return a.resources.lut < b.resources.lut;
    });
    return front;
}

std::string renderTable(const std::vector<DsePoint>& points) {
    const auto pareto = paretoFront(points);
    const auto isPareto = [&](unsigned mask) {
        return std::any_of(pareto.begin(), pareto.end(),
                           [&](const DsePoint& p) { return p.mask == mask; });
    };
    std::uint64_t swCycles = 0;
    for (const auto& p : points) {
        if (p.mask == 0 && p.feasible) {
            swCycles = p.cycles;
        }
    }
    std::ostringstream out;
    out << format("%-6s %-34s %8s %8s %7s %5s %12s %8s %s\n", "mask", "partition", "LUT",
                  "FF", "RAMB18", "DSP", "cycles", "speedup", "pareto");
    for (const auto& p : points) {
        if (!p.feasible) {
            out << format("%-6u %-34s %s\n", p.mask, p.label.c_str(),
                          ("infeasible: " + p.infeasibleReason).c_str());
            continue;
        }
        const double speedup =
            p.cycles == 0 ? 0.0
                          : static_cast<double>(swCycles) / static_cast<double>(p.cycles);
        out << format("%-6u %-34s %8lld %8lld %7lld %5lld %12llu %7.2fx %s\n", p.mask,
                      p.label.c_str(), static_cast<long long>(p.resources.lut),
                      static_cast<long long>(p.resources.ff),
                      static_cast<long long>(p.resources.bram18),
                      static_cast<long long>(p.resources.dsp),
                      static_cast<unsigned long long>(p.cycles), speedup,
                      isPareto(p.mask) ? "*" : "");
    }
    return out.str();
}

} // namespace socgen::dse
