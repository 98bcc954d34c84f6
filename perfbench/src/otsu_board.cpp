// otsu-board: the paper's whole path for one architecture per op —
// pre-rendered DSL text -> parseDsl -> Flow::run against a warmed
// HlsCache -> OtsuSystemRunner::run on a 128x128 scene — checked against
// apps::otsuFilterRef. Closed loop, one client, jobs=1.

#include "bench.hpp"

#include "socgen/apps/otsu.hpp"
#include "socgen/apps/otsu_project.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/core/parser.hpp"

#include <array>
#include <memory>

namespace perfbench {

using namespace socgen;

namespace {

constexpr unsigned kSide = 128;
constexpr std::size_t kScenePool = 16;

struct BoardSetup {
    hls::KernelLibrary kernels;
    std::shared_ptr<core::HlsCache> cache = std::make_shared<core::HlsCache>();
    core::FlowOptions options = apps::otsuFlowOptions();
    std::array<std::string, 5> dsl;                  ///< by architecture 1..4
    std::array<core::HtgPartition, 5> partitions;
    std::vector<apps::RgbImage> scenes;
    std::vector<apps::GrayImage> references;
};

std::uint64_t sceneSeed(std::uint64_t seed, std::size_t index) {
    return subSeed(seed, 100 + index);
}

/// Kernel libraries, DSL texts, the scene pool with its references, and
/// the HLS cache warmed Arch4-first as the paper does.
std::unique_ptr<BoardSetup> setUp(std::uint64_t seed) {
    auto s = std::make_unique<BoardSetup>();
    s->kernels = apps::makeOtsuKernelLibrary(static_cast<std::int64_t>(kSide) * kSide);
    const core::Htg htg = apps::makeOtsuHtg();
    for (int arch = 1; arch <= 4; ++arch) {
        s->partitions[arch] = apps::otsuArchPartition(arch);
        s->dsl[arch] = core::lowerToTaskGraph(htg, s->partitions[arch])
                           .renderDsl("Arch" + std::to_string(arch));
    }
    for (const int arch : {4, 1, 2, 3}) {
        const core::ParsedDsl parsed = core::parseDsl(s->dsl[arch]);
        core::Flow flow(s->options, s->kernels, s->cache);
        (void)flow.run(parsed.projectName, parsed.graph);
    }
    for (std::size_t i = 0; i < kScenePool; ++i) {
        s->scenes.push_back(apps::makeSyntheticScene(kSide, kSide, sceneSeed(seed, i)));
        s->references.push_back(apps::otsuFilterRef(s->scenes.back()));
    }
    return s;
}

struct BoardOp {
    int arch = 4;
    std::size_t scene = 0;
};

/// Seeded op stream: architectures in shuffled blocks of all four (so the
/// mix is the same whatever the seed), scenes drawn from the pool.
class BoardOps {
public:
    explicit BoardOps(std::uint64_t seed) : rng_(subSeed(seed, 7)) {}

    BoardOp next() {
        if (block_.empty()) {
            block_ = {1, 2, 3, 4};
            rng_.shuffle(block_);
        }
        BoardOp op{block_.back(), static_cast<std::size_t>(rng_.below(kScenePool))};
        block_.pop_back();
        return op;
    }

private:
    Rng rng_;
    std::vector<int> block_;
};

/// Simulated counters of one board run, read from the live simulator.
struct Counters {
    std::uint64_t psBusy = 0, psTask = 0, psDriver = 0;
    std::uint64_t beats = 0, pushStalls = 0, popStalls = 0, highWaterMax = 0;
    std::uint64_t vmCycles = 0, vmStalls = 0, vmInstrs = 0, dmaWords = 0;
};

/// A component registered last on the engine. Engine::stepOnce asks
/// components whether they are idle in order and stops at the first busy
/// one, so idle() here runs only once every real component is idle: the
/// final cycle, where it copies the counters. It never reports progress
/// and is always idle, so the simulated run is unchanged.
class CounterProbe : public sim::Component {
public:
    CounterProbe(soc::SystemSimulator& sim, std::vector<std::string> cores)
        : sim_(&sim), cores_(std::move(cores)) {}

    [[nodiscard]] const std::string& name() const override { return name_; }
    bool tick() override { return false; }
    [[nodiscard]] bool idle() const override {
        capture();
        return true;
    }
    [[nodiscard]] const Counters& counters() const { return counters_; }

private:
    void capture() const {
        Counters c;
        c.psBusy = sim_->ps().cyclesBusy();
        c.psTask = sim_->ps().taskCycles();
        c.psDriver = sim_->ps().driverCycles();
        for (std::size_t i = 0; i < sim_->channelCount(); ++i) {
            const axi::StreamChannel& ch = sim_->channel(i);
            c.beats += ch.beatsPushed();
            c.pushStalls += ch.pushStalls();
            c.popStalls += ch.popStalls();
            c.highWaterMax = std::max<std::uint64_t>(c.highWaterMax, ch.highWater());
        }
        for (const std::string& core : cores_) {
            const hls::KernelVm& vm = sim_->core(core).vm();
            c.vmCycles += vm.cycles();
            c.vmStalls += vm.stallCycles();
            c.vmInstrs += vm.instructionsExecuted();
        }
        for (const std::string& dma : sim_->dmaNames()) {
            c.dmaWords += sim_->dma(dma).wordsMoved();
        }
        counters_ = c;
    }

    std::string name_ = "perfbench_counter_probe";
    soc::SystemSimulator* sim_;
    std::vector<std::string> cores_;
    mutable Counters counters_;
};

struct OpOutcome {
    double ms = 0.0;
    double boardSeconds = 0.0;
    std::uint64_t cycles = 0;
    std::string reportDigest;  ///< digest of the simulator's execution report
    std::size_t engineRuns = 0;
    Counters counters;
    bool imageOk = false;
};

/// One op. With `recorder` set, records spans and reads the counters.
/// Each span starts right before its call, so the glue between calls
/// (option copies, runner construction, the tracer itself) is the op
/// root's self time, reported as trace.other.us.
OpOutcome runOp(const BoardSetup& s, const BoardOp& op, std::uint64_t index, Tracer& tracer,
                const std::shared_ptr<StageRecorder>& recorder) {
    OpOutcome out;
    const TimePoint t0 = Clock::now();
    const Tracer::SpanId root = tracer.open("op", index, Tracer::kNone, t0);
    const TimePoint parseBegin = Clock::now();
    const core::ParsedDsl parsed = core::parseDsl(s.dsl[op.arch]);
    tracer.record("core.parse", index, root, parseBegin, Clock::now());

    core::FlowOptions options = s.options;
    Tracer::SpanId flowSpan = Tracer::kNone;
    if (recorder) {
        flowSpan = tracer.open("core.flow", index, root, Clock::now());
        recorder->setScope(index, flowSpan);
        options.subscribers.push_back(recorder);
    }
    core::Flow flow(std::move(options), s.kernels, s.cache);
    const core::FlowResult result = flow.run(parsed.projectName, parsed.graph);
    const TimePoint t2 = Clock::now();
    tracer.close(flowSpan, t2);

    apps::OtsuSystemRunner runner(result, s.partitions[op.arch]);
    apps::OtsuSystemRunner::Result board;
    if (recorder) {
        std::vector<std::string> cores;
        for (const auto& [node, program] : result.programs) {
            cores.push_back(node);
        }
        TimePoint built = t2;
        std::unique_ptr<CounterProbe> probe;
        const TimePoint boardBegin = Clock::now();
        board = runner.run(s.scenes[op.scene], [&](soc::SystemSimulator& sim) {
            built = Clock::now();
            probe = std::make_unique<CounterProbe>(sim, cores);
            sim.engine().add(*probe);
        });
        const TimePoint t3 = Clock::now();
        tracer.record("soc.board.build", index, root, boardBegin, built);
        tracer.record("soc.board.run", index, root, built, t3);
        tracer.close(root, t3);
        out.ms = msBetween(t0, t3);
        out.boardSeconds = msBetween(t2, t3) / 1000.0;
        out.counters = probe->counters();
    } else {
        board = runner.run(s.scenes[op.scene]);
        const TimePoint t3 = Clock::now();
        out.ms = msBetween(t0, t3);
        out.boardSeconds = msBetween(t2, t3) / 1000.0;
    }
    out.cycles = board.cycles;
    out.reportDigest = digest128(board.report).hex();
    out.engineRuns = result.diagnostics.processEngineRuns();
    out.imageOk = board.output == s.references[op.scene];
    return out;
}

/// One measured phase: ops back to back until `seconds` (or maxOps).
struct Phase {
    std::vector<double> opMs;
    std::vector<OpOutcome> ops;  ///< per attempted op, in order (failed ones default)
    double wallSeconds = 0.0;
    std::uint64_t cycles = 0;
    double boardSeconds = 0.0;
};

Phase runPhase(const BoardSetup& s, const Config& config, double seconds, Tracer& tracer,
               const std::shared_ptr<StageRecorder>& recorder, Tally& tally) {
    Phase phase;
    BoardOps ops(config.seed);
    const TimePoint start = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
        const double elapsed = msBetween(start, Clock::now()) / 1000.0;
        if (elapsed >= seconds || (config.maxOps > 0 && i >= config.maxOps)) {
            break;
        }
        const BoardOp op = ops.next();
        ++tally.attempted;
        try {
            OpOutcome out = runOp(s, op, i, tracer, recorder);
            if (!out.imageOk) {
                tally.fail("otsu-board op " + std::to_string(i) + " (Arch" +
                           std::to_string(op.arch) + "): output image differs from otsuFilterRef");
            } else {
                phase.opMs.push_back(out.ms);
                phase.cycles += out.cycles;
                phase.boardSeconds += out.boardSeconds;
            }
            phase.ops.push_back(std::move(out));
        } catch (const std::exception& e) {
            tally.fail("otsu-board op " + std::to_string(i) + ": " + e.what());
            phase.ops.emplace_back();
        }
    }
    phase.wallSeconds = msBetween(start, Clock::now()) / 1000.0;
    return phase;
}

} // namespace

std::string boardOpSequence(std::uint64_t seed, std::size_t count) {
    BoardOps ops(seed);
    std::string text;
    for (std::size_t i = 0; i < count; ++i) {
        const BoardOp op = ops.next();
        const std::uint64_t scene = sceneSeed(seed, op.scene);
        const apps::RgbImage image = apps::makeSyntheticScene(kSide, kSide, scene);
        std::string bytes;
        for (const std::uint32_t px : image.packedPixels()) {
            bytes.append(reinterpret_cast<const char*>(&px), sizeof px);
        }
        text += "arch=" + std::to_string(op.arch) + " scene=" + std::to_string(scene) +
                " pixels=" + digest128(bytes).hex() + "\n";
    }
    return text;
}

RunResult runOtsuBoard(const Config& config) {
    RunResult result;
    std::vector<double> setups;
    std::unique_ptr<BoardSetup> setup;
    for (int r = 0; r < kSetupRepeats; ++r) {
        setup.reset();
        const TimePoint t0 = Clock::now();
        setup = setUp(config.seed);
        setups.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }

    Tracer off(false);
    if (!config.trace) {
        const Phase phase = runPhase(*setup, config, config.seconds, off, nullptr, result.tally);
        result.simCycles = phase.cycles;
        const double n = static_cast<double>(phase.opMs.size());
        result.endToEnd = endToEndMetrics(
            phase.opMs, phase.wallSeconds, median(setups), n > 0 ? phase.cycles / n : 0.0,
            phase.boardSeconds > 0 ? phase.cycles / phase.boardSeconds / 1e6 : 0.0);
        return result;
    }

    // Traced run: the same op sequence untraced, then traced; per op the
    // cycles and the execution report must match between the two.
    const Phase plain = runPhase(*setup, config, config.seconds / 2, off, nullptr, result.tally);
    Tracer tracer(true);
    auto recorder = std::make_shared<StageRecorder>(tracer, true);
    const Phase traced =
        runPhase(*setup, config, config.seconds / 2, tracer, recorder, result.tally);
    result.simCycles = plain.cycles;
    result.simCyclesTraced = traced.cycles;
    for (std::size_t i = 0; i < std::min(plain.ops.size(), traced.ops.size()); ++i) {
        const OpOutcome& a = plain.ops[i];
        const OpOutcome& b = traced.ops[i];
        if (a.cycles != b.cycles || a.reportDigest != b.reportDigest) {
            result.tally.fail("otsu-board op " + std::to_string(i) +
                              ": simulated counters differ between untraced and traced runs");
        }
    }

    auto& L = result.layers;
    const std::size_t n = traced.ops.size();
    addSpanLayers(tracer, n, L);
    Counters sum;
    std::size_t engineRuns = 0;
    for (const OpOutcome& o : traced.ops) {
        const Counters& c = o.counters;
        sum.psBusy += c.psBusy;
        sum.psTask += c.psTask;
        sum.psDriver += c.psDriver;
        sum.beats += c.beats;
        sum.pushStalls += c.pushStalls;
        sum.popStalls += c.popStalls;
        sum.highWaterMax += c.highWaterMax;
        sum.vmCycles += c.vmCycles;
        sum.vmStalls += c.vmStalls;
        sum.vmInstrs += c.vmInstrs;
        sum.dmaWords += c.dmaWords;
        engineRuns += o.engineRuns;
    }
    const double ops = n > 0 ? static_cast<double>(n) : 1.0;
    L["ps.busy_cycles"] = sum.psBusy / ops;
    L["ps.task_cycles"] = sum.psTask / ops;
    L["ps.driver_cycles"] = sum.psDriver / ops;
    L["axi.beats"] = sum.beats / ops;
    L["axi.push_stalls"] = sum.pushStalls / ops;
    L["axi.pop_stalls"] = sum.popStalls / ops;
    L["axi.high_water_max"] = sum.highWaterMax / ops;
    L["vm.cycles"] = sum.vmCycles / ops;
    L["vm.stall_cycles"] = sum.vmStalls / ops;
    L["vm.instrs"] = sum.vmInstrs / ops;
    L["dma.words"] = sum.dmaWords / ops;
    L["hls.engine_runs"] = engineRuns / ops;
    const double reuse = static_cast<double>(recorder->reuseEvents());
    L["core.hls.reuse_ratio"] = reuse + engineRuns > 0 ? reuse / (reuse + engineRuns) : 0.0;
    const auto totals = tracer.totalTimesUs();
    if (traced.cycles > 0 && totals.count("soc.board.run") > 0) {
        L["soc.board.ns_per_cycle"] =
            totals.at("soc.board.run") * 1000.0 / static_cast<double>(traced.cycles);
    }
    L["trace.overhead_pct"] = overheadPct(plain.opMs, traced.opMs);
    tracer.writeChromeJson(config.tracePath);
    result.notes.push_back("trace: " + config.tracePath);
    return result;
}

} // namespace perfbench
