// flow-cold: one op is DSL text -> a complete generated project: parse,
// HLS for every node with a fresh HlsCache and no store, integration and
// Tcl, the synthesis model and bitstream, device tree, drivers and boot.
// No board run. Projects come in shuffled blocks of all eight; each op
// draws a directive variant. Closed loop, one client, jobs=1.

#include "bench.hpp"
#include "projects.hpp"
#include "replay.hpp"

#include "socgen/common/hash.hpp"
#include "socgen/core/parser.hpp"

#include <cstdio>
#include <iterator>
#include <memory>

namespace perfbench {

using namespace socgen;

namespace {

struct FlowColdSetup {
    hls::KernelLibrary kernels = makeProjectLibrary();
    std::vector<Project> projects = flowColdProjects();
    std::vector<Variant> variants = allVariants();
    std::vector<std::vector<core::FlowOptions>> options;  ///< [project][variant]
};

std::unique_ptr<FlowColdSetup> setUp() {
    auto s = std::make_unique<FlowColdSetup>();
    for (const Project& p : s->projects) {
        std::vector<core::FlowOptions> row;
        for (const Variant& v : s->variants) {
            row.push_back(flowOptionsFor(p, &v));
        }
        s->options.push_back(std::move(row));
    }
    return s;
}

struct FlowOp {
    std::size_t project = 0;
    std::size_t variant = 0;
};

class FlowOps {
public:
    FlowOps(std::uint64_t seed, std::size_t projects, std::size_t variants)
        : rng_(subSeed(seed, 11)), projects_(projects), variants_(variants) {}

    FlowOp next() {
        if (block_.empty()) {
            for (std::size_t p = 0; p < projects_; ++p) {
                block_.push_back(p);
            }
            rng_.shuffle(block_);
        }
        FlowOp op{block_.back(), static_cast<std::size_t>(rng_.below(variants_))};
        block_.pop_back();
        return op;
    }

private:
    Rng rng_;
    std::size_t projects_;
    std::size_t variants_;
    std::vector<std::size_t> block_;
};

std::uint64_t oracleSeed(std::uint64_t seed, const FlowOp& op) {
    return subSeed(seed, 1000 + op.project * 64 + op.variant);
}

/// What the first op of each (project, variant) leaves for the checks.
struct PairState {
    std::string digest;  ///< bitstream digest every repeat must reproduce
    std::map<std::string, hls::Program> programs;
    std::size_t ops = 0;
    OracleResult oracle;
};

/// Untraced phases time a VM oracle run of one checked pair after every
/// kVmSampleEvery-th op, so sim_mcycles_per_s averages over the same
/// window as the op times instead of one burst after it.
constexpr std::uint64_t kVmSampleEvery = 2;

struct Phase {
    std::vector<double> opMs;
    std::vector<std::pair<std::size_t, std::string>> digests;  ///< (pair, digest) per ok op
    std::vector<std::size_t> projectOf;                        ///< project per ok op
    double wallSeconds = 0.0;     ///< measured loop, VM samples excluded
    std::size_t engineRuns = 0;
    ReplaySizes sizes;
    std::uint64_t vmCycles = 0;   ///< VM samples: cycles and host time in the tick loop
    double vmSeconds = 0.0;
};

/// Runs one pair's programs on the VM oracle (round robin over the pairs
/// seen so far). Wrong outputs are reported by checkPairs.
void sampleVm(const Config& config, const FlowColdSetup& s,
              const std::map<std::size_t, PairState>& pairs, std::size_t cursor, Phase& phase) {
    auto it = pairs.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(cursor % pairs.size()));
    if (it->second.programs.empty()) {
        return;
    }
    try {
        const FlowOp op{it->first / s.variants.size(), it->first % s.variants.size()};
        const OracleResult r = checkPrograms(it->second.programs, oracleSeed(config.seed, op));
        phase.vmCycles += r.cycles;
        phase.vmSeconds += r.hostSeconds;
    } catch (const std::exception&) {
        // checkPairs runs the same programs again and records the failure.
    }
}

Phase runPhase(const FlowColdSetup& s, const Config& config, double seconds, Tracer& tracer,
               const std::shared_ptr<StageRecorder>& recorder,
               std::map<std::size_t, PairState>& pairs, Tally& tally) {
    Phase phase;
    double samplingSeconds = 0.0;
    FlowOps ops(config.seed, s.projects.size(), s.variants.size());
    const TimePoint start = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
        if (msBetween(start, Clock::now()) / 1000.0 >= seconds ||
            (config.maxOps > 0 && i >= config.maxOps)) {
            break;
        }
        const FlowOp op = ops.next();
        const Project& project = s.projects[op.project];
        const std::string what = "flow-cold op " + std::to_string(i) + " (" + project.name +
                                 ", " + s.variants[op.variant].str() + ")";
        ++tally.attempted;
        try {
            // Each span starts right before its call; the glue between
            // calls is the op root's self time (trace.other.us).
            const TimePoint t0 = Clock::now();
            const Tracer::SpanId root = tracer.open("op", i, Tracer::kNone, t0);
            const TimePoint parseBegin = Clock::now();
            const core::ParsedDsl parsed = core::parseDsl(project.dsl);
            tracer.record("core.parse", i, root, parseBegin, Clock::now());
            core::FlowOptions options = s.options[op.project][op.variant];
            Tracer::SpanId flowSpan = Tracer::kNone;
            if (recorder) {
                flowSpan = tracer.open("core.flow", i, root, Clock::now());
                recorder->setScope(i, flowSpan);
                options.subscribers.push_back(recorder);
            }
            core::Flow flow(std::move(options), s.kernels, std::make_shared<core::HlsCache>());
            core::FlowResult result = flow.run(parsed.projectName, parsed.graph);
            const TimePoint t2 = Clock::now();
            tracer.close(flowSpan, t2);
            tracer.close(root, t2);

            // Checks, outside the op's time.
            const std::size_t key = op.project * s.variants.size() + op.variant;
            const std::string digest = digest128(result.bitstream.serialize()).hex();
            PairState& pair = pairs[key];
            if (pair.digest.empty()) {
                pair.digest = digest;
                pair.programs = std::move(result.programs);
            } else if (pair.digest != digest) {
                tally.fail(what + ": bitstream digest differs from an earlier run");
                continue;
            }
            if (recorder) {
                const std::string mismatch =
                    replayHls(result, s.kernels, s.options[op.project][op.variant], tracer,
                              i, phase.sizes);
                if (!mismatch.empty()) {
                    tally.fail(what + ": " + mismatch);
                    continue;
                }
            }
            ++pair.ops;
            phase.engineRuns += result.diagnostics.processEngineRuns();
            phase.opMs.push_back(msBetween(t0, t2));
            phase.digests.emplace_back(key, digest);
            phase.projectOf.push_back(op.project);
            if (!recorder && i % kVmSampleEvery == 0) {
                const TimePoint s0 = Clock::now();
                sampleVm(config, s, pairs, i / kVmSampleEvery, phase);
                samplingSeconds += msBetween(s0, Clock::now()) / 1000.0;
            }
        } catch (const std::exception& e) {
            tally.fail(what + ": " + e.what());
        }
    }
    phase.wallSeconds = msBetween(start, Clock::now()) / 1000.0 - samplingSeconds;
    return phase;
}

/// Runs every distinct (project, variant) once on the VM oracle. Ops of
/// a pair whose outputs are wrong count as failed. Returns the summed
/// cycles over the ops of `phase`.
std::uint64_t checkPairs(const Config& config, const FlowColdSetup& s,
                         std::map<std::size_t, PairState>& pairs, const Phase& phase,
                         Tally& tally) {
    for (auto& [key, pair] : pairs) {
        if (pair.oracle.cycles > 0 || !pair.oracle.mismatch.empty() || pair.programs.empty()) {
            continue;  // already checked (traced runs keep the map across phases)
        }
        const FlowOp op{key / s.variants.size(), key % s.variants.size()};
        try {
            pair.oracle = checkPrograms(pair.programs, oracleSeed(config.seed, op));
        } catch (const std::exception& e) {
            pair.oracle.mismatch = e.what();
        }
        if (!pair.oracle.mismatch.empty()) {
            for (std::size_t i = 0; i < pair.ops; ++i) {
                tally.fail("flow-cold " + s.projects[op.project].name + " (" +
                           s.variants[op.variant].str() + "): " + pair.oracle.mismatch);
            }
        }
    }
    std::uint64_t cycles = 0;
    for (const auto& [key, digest] : phase.digests) {
        cycles += pairs.at(key).oracle.cycles;
    }
    return cycles;
}

} // namespace

std::string flowColdOpSequence(std::uint64_t seed, std::size_t count) {
    const std::vector<Project> projects = flowColdProjects();
    const std::vector<Variant> variants = allVariants();
    FlowOps ops(seed, projects.size(), variants.size());
    std::string text;
    for (std::size_t i = 0; i < count; ++i) {
        const FlowOp op = ops.next();
        text += projects[op.project].name + " " + variants[op.variant].str() +
                " inputs=" + std::to_string(oracleSeed(seed, op)) + "\n";
    }
    return text;
}

RunResult runFlowCold(const Config& config) {
    RunResult result;
    std::vector<double> setups;
    std::unique_ptr<FlowColdSetup> setup;
    for (int r = 0; r < kSetupRepeats; ++r) {
        setup.reset();
        const TimePoint t0 = Clock::now();
        setup = setUp();
        setups.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }

    std::map<std::size_t, PairState> pairs;
    Tracer off(false);
    if (!config.trace) {
        const Phase phase =
            runPhase(*setup, config, config.seconds, off, nullptr, pairs, result.tally);
        result.simCycles = checkPairs(config, *setup, pairs, phase, result.tally);
        const double n = static_cast<double>(phase.opMs.size());
        result.endToEnd = endToEndMetrics(phase.opMs, phase.wallSeconds, median(setups),
                                          n > 0 ? result.simCycles / n : 0.0,
                                          phase.vmSeconds > 0
                                              ? phase.vmCycles / phase.vmSeconds / 1e6
                                              : 0.0);
        for (std::size_t p = 0; p < setup->projects.size(); ++p) {
            std::vector<double> ms;
            for (std::size_t i = 0; i < phase.opMs.size(); ++i) {
                if (phase.projectOf[i] == p) {
                    ms.push_back(phase.opMs[i]);
                }
            }
            char line[160];
            std::snprintf(line, sizeof line, "  %-12s %5zu ops  p50 %9.3f ms  p90 %9.3f ms",
                          setup->projects[p].name.c_str(), ms.size(), percentile(ms, 0.5),
                          percentile(ms, 0.9));
            result.notes.push_back(line);
        }
        return result;
    }

    // Traced run: the same op sequence untraced, then traced. The pair map
    // is shared, so a traced op whose bitstream differs from the untraced
    // one fails the digest-repeat check.
    const Phase plain =
        runPhase(*setup, config, config.seconds / 2, off, nullptr, pairs, result.tally);
    Tracer tracer(true);
    auto recorder = std::make_shared<StageRecorder>(tracer, true);
    const Phase traced =
        runPhase(*setup, config, config.seconds / 2, tracer, recorder, pairs, result.tally);
    result.simCycles = checkPairs(config, *setup, pairs, plain, result.tally);
    result.simCyclesTraced = checkPairs(config, *setup, pairs, traced, result.tally);

    auto& L = result.layers;
    const double n = traced.opMs.empty() ? 1.0 : static_cast<double>(traced.opMs.size());
    addSpanLayers(tracer, traced.opMs.size(), L);
    L["hls.engine_runs"] = traced.engineRuns / n;
    const double reuse = static_cast<double>(recorder->reuseEvents());
    L["core.hls.reuse_ratio"] =
        reuse + traced.engineRuns > 0 ? reuse / (reuse + traced.engineRuns) : 0.0;
    L["hls.ir.stmts"] = traced.sizes.stmts / n;
    L["hls.program.instrs"] = traced.sizes.instrs / n;
    L["rtl.netlist.cells"] = traced.sizes.cells / n;
    L["rtl.netlist.nets"] = traced.sizes.nets / n;
    L["trace.overhead_pct"] = overheadPct(plain.opMs, traced.opMs);
    tracer.writeChromeJson(config.tracePath);
    result.notes.push_back("trace: " + config.tracePath);
    return result;
}

} // namespace perfbench
