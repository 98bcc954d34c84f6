// Crash-recovery harness (CTest label: resilience): kills the flow at
// every journaled stage boundary, corrupts stored artifacts, injects
// transient tool failures and hangs, and asserts the journaled,
// supervised flow always recovers to a bit-identical bitstream — with
// zero re-synthesis of journal-committed nodes and never a silently
// loaded corrupt artifact.

#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/artifact_store.hpp"
#include "socgen/core/flow.hpp"
#include "socgen/core/journal.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/hls/serialize.hpp"
#include "socgen/sim/fault.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace socgen::core {
namespace {

hls::KernelLibrary exampleKernels() {
    hls::KernelLibrary lib;
    lib.add(apps::makeAddKernel());
    lib.add(apps::makeMulKernel());
    lib.add(apps::makeGaussKernel(64));
    lib.add(apps::makeEdgeKernel(64));
    return lib;
}

TaskGraph quickstartGraph() {
    constexpr const char* dsl = R"(
object q extends App {
  tg nodes;
    tg node "MUL" i "A" i "B" i "return" end;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
    tg connect "MUL";
  tg end_edges;
}
)";
    return parseDsl(dsl).graph;
}

const std::vector<std::string>& graphNodes() {
    static const std::vector<std::string> nodes = {"MUL", "GAUSS", "EDGE"};
    return nodes;
}

std::string freshDir(const std::string& name) {
    const std::string dir = testing::TempDir() + "/socgen_recovery_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

const FlowDiagnostics::NodeOutcome& outcomeOf(const FlowResult& result,
                                              const std::string& node) {
    for (const auto& n : result.diagnostics.nodes) {
        if (n.node == node) {
            return n;
        }
    }
    throw Error("test: no outcome for node " + node);
}

/// The clean reference build every recovery run must reproduce bit-exactly.
const FlowResult& referenceResult() {
    static const FlowResult result = [] {
        const hls::KernelLibrary kernels = exampleKernels();
        return Flow(FlowOptions{}, kernels).run("proj", quickstartGraph());
    }();
    return result;
}

std::string journalPathOf(const std::string& dir) {
    return dir + "/.socgen/journal/proj.jsonl";
}

// ---------------------------------------------------------------------------
// The crash sweep: kill the flow at every stage boundary (both at stage
// begin and pre-commit), then re-run with the same outputDir. The
// recovery run must produce a bit-identical bitstream, and every node the
// journal recorded as committed must be served from the store with zero
// engine attempts.

TEST(FlowRecovery, CrashSweepResumesBitIdentical) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string referenceBits = referenceResult().bitstream.serialize();
    std::vector<std::string> stages = {"scala",   "integrate", "synth",    "devicetree",
                                       "drivers", "boot",      "artifacts"};
    for (const std::string& node : graphNodes()) {
        stages.push_back("hls:" + node);
    }
    for (const std::string& stage : stages) {
        for (std::uint64_t phase = 0; phase <= 1; ++phase) {
            const std::string tag =
                stage.substr(stage.find(':') + 1) + "_p" + std::to_string(phase);
            const std::string dir = freshDir("crash_" + tag);
            FlowOptions crashing;
            crashing.outputDir = dir;
            crashing.flowFaults.crashFlow(stage, phase);
            Flow broken(crashing, kernels);
            EXPECT_THROW((void)broken.run("proj", quickstartGraph()), FlowCrashError)
                << stage << " phase " << phase;

            // What did the crashed run durably commit?
            const FlowJournal journal = FlowJournal::open(journalPathOf(dir));
            const std::vector<std::string> committed = journal.committedStages();

            FlowOptions clean;
            clean.outputDir = dir;
            const FlowResult recovered = Flow(clean, kernels).run("proj", quickstartGraph());
            EXPECT_EQ(recovered.bitstream.serialize(), referenceBits)
                << "recovery after crash at " << stage << " phase " << phase
                << " is not bit-identical";
            EXPECT_EQ(recovered.diagnostics.digestMismatches, 0u) << stage;

            // Zero re-synthesis of committed nodes, journal-verified.
            for (const std::string& done : committed) {
                if (done.rfind("hls:", 0) != 0) {
                    continue;
                }
                const auto& outcome = outcomeOf(recovered, done.substr(4));
                EXPECT_TRUE(outcome.storeHit) << done << " after crash at " << stage;
                EXPECT_TRUE(outcome.resumedFromJournal) << done;
                EXPECT_EQ(outcome.attempts, 0u) << done;
                EXPECT_DOUBLE_EQ(outcome.toolSeconds, 0.0) << done;
            }

            // A third run resumes everything: no engine work at all.
            const FlowResult warm = Flow(clean, kernels).run("proj", quickstartGraph());
            EXPECT_EQ(warm.diagnostics.engineRuns(), 0u) << stage;
            EXPECT_EQ(warm.diagnostics.storeHits(), graphNodes().size()) << stage;
            EXPECT_EQ(warm.bitstream.serialize(), referenceBits) << stage;
            std::filesystem::remove_all(dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption: a stored artifact damaged after its commit must be detected
// by digest validation on the next run and rebuilt — never silently
// loaded into the design.

TEST(FlowRecovery, CorruptArtifactDetectedAndRebuilt) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("corrupt");
    FlowOptions first;
    first.outputDir = dir;
    first.flowFaults.corruptArtifact("GAUSS");
    const FlowResult seeded = Flow(first, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(seeded.diagnostics.engineRuns(), 3u);

    FlowOptions second;
    second.outputDir = dir;
    const FlowResult recovered = Flow(second, kernels).run("proj", quickstartGraph());
    const auto& gauss = outcomeOf(recovered, "GAUSS");
    EXPECT_FALSE(gauss.storeHit);  // validation rejected the object
    EXPECT_EQ(gauss.attempts, 1u);
    EXPECT_EQ(recovered.diagnostics.corruptArtifacts, 1u);
    EXPECT_EQ(recovered.diagnostics.storeHits(), 2u);  // MUL and EDGE intact
    EXPECT_EQ(recovered.bitstream.serialize(), referenceResult().bitstream.serialize());
    EXPECT_NE(recovered.diagnostics.render().find("corrupt artifact"), std::string::npos);

    // The rebuild overwrote the bad object: a third run is fully warm.
    const FlowResult warm = Flow(second, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(warm.diagnostics.engineRuns(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(FlowRecovery, StoreValidationRejectsFlippedByte) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("store_validate");
    FlowOptions options;
    options.outputDir = dir;
    Flow flow(options, kernels);
    const FlowResult result = flow.run("proj", quickstartGraph());
    ASSERT_NE(flow.artifactStore(), nullptr);
    const std::string key = outcomeOf(result, "EDGE").artifactKey;
    ASSERT_TRUE(flow.artifactStore()->contains(key));
    flow.artifactStore()->corruptObject(key);
    std::string why;
    EXPECT_FALSE(flow.artifactStore()->load(key, &why).has_value());
    EXPECT_FALSE(why.empty());
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cache-key regression (the stale-hit bug): the in-memory cache is keyed
// by content, so changing a kernel's directives must miss and re-run HLS
// rather than returning the result synthesized under the old directives.

TEST(FlowRecovery, ChangedDirectivesNeverHitTheStaleCacheEntry) {
    const hls::KernelLibrary kernels = exampleKernels();
    auto cache = std::make_shared<HlsCache>();
    const FlowResult plain =
        Flow(FlowOptions{}, kernels, cache).run("a", quickstartGraph());
    EXPECT_EQ(cache->size(), 3u);

    FlowOptions unrolled;
    unrolled.kernelDirectives["GAUSS"] = hls::Directives{};
    unrolled.kernelDirectives["GAUSS"].unrollFactors["i"] = 4;
    const FlowResult tuned =
        Flow(unrolled, kernels, cache).run("b", quickstartGraph());

    // GAUSS re-synthesized under the new directives; MUL/EDGE still hit.
    EXPECT_FALSE(outcomeOf(tuned, "GAUSS").cacheHit);
    EXPECT_EQ(outcomeOf(tuned, "GAUSS").attempts, 1u);
    EXPECT_TRUE(outcomeOf(tuned, "MUL").cacheHit);
    EXPECT_TRUE(outcomeOf(tuned, "EDGE").cacheHit);
    EXPECT_NE(outcomeOf(tuned, "GAUSS").artifactKey,
              outcomeOf(plain, "GAUSS").artifactKey);
    EXPECT_NE(tuned.hlsResults.at("GAUSS").directiveText,
              plain.hlsResults.at("GAUSS").directiveText);
    EXPECT_EQ(cache->size(), 4u);  // both GAUSS variants coexist

    // And the original directives still hit their own entry.
    const FlowResult again =
        Flow(FlowOptions{}, kernels, cache).run("c", quickstartGraph());
    EXPECT_TRUE(outcomeOf(again, "GAUSS").cacheHit);
    EXPECT_EQ(again.hlsResults.at("GAUSS").vhdl, plain.hlsResults.at("GAUSS").vhdl);
}

TEST(FlowRecovery, ArtifactKeySensitivity) {
    const hls::KernelLibrary kernels = exampleKernels();
    const hls::Kernel& gauss = kernels.get("GAUSS");
    const hls::Directives base;
    const soc::FpgaDevice device = soc::zedboard();
    const std::string key = ArtifactStore::deriveKey(gauss, base, device, "tool-1");
    EXPECT_EQ(key.size(), 32u);
    EXPECT_EQ(key, ArtifactStore::deriveKey(gauss, base, device, "tool-1"));

    hls::Directives tuned = base;
    tuned.unrollFactors["i"] = 2;
    EXPECT_NE(key, ArtifactStore::deriveKey(gauss, tuned, device, "tool-1"));

    soc::FpgaDevice other = device;
    other.part = "xc7z045ffg900-2";
    EXPECT_NE(key, ArtifactStore::deriveKey(gauss, base, other, "tool-1"));
    EXPECT_NE(key, ArtifactStore::deriveKey(gauss, base, device, "tool-2"));
    EXPECT_NE(key, ArtifactStore::deriveKey(kernels.get("EDGE"), base, device, "tool-1"));
}

// ---------------------------------------------------------------------------
// Supervision: transient failures are retried with backoff; exhaustion
// degrades under the Degrade policy; hangs hit the deadline and retry.

TEST(FlowRecovery, TransientFailureRetriesThenSucceeds) {
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.transientHlsFailures["GAUSS"] = 2;  // attempts 1+2 fail, 3 succeeds
    const FlowResult result = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_FALSE(result.diagnostics.anyDegraded());
    EXPECT_EQ(outcomeOf(result, "GAUSS").attempts, 3u);
    EXPECT_EQ(outcomeOf(result, "MUL").attempts, 1u);
    EXPECT_GE(result.diagnostics.stageRetries, 2u);
    EXPECT_EQ(result.bitstream.serialize(), referenceResult().bitstream.serialize());
}

TEST(FlowRecovery, RetriesExhaustedDegradeTheNode) {
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.transientHlsFailures["GAUSS"] = 100;  // outlives every retry budget
    const FlowResult result = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(result.diagnostics.degradedNodes(), std::vector<std::string>{"GAUSS"});
    EXPECT_EQ(outcomeOf(result, "GAUSS").attempts,
              static_cast<unsigned>(StagePolicy{}.maxAttempts));

    FlowOptions aborting = options;
    aborting.hlsFailurePolicy = HlsFailurePolicy::Abort;
    EXPECT_THROW((void)Flow(aborting, kernels).run("proj", quickstartGraph()), HlsError);
}

TEST(FlowRecovery, StageHangHitsDeadlineAndRetries) {
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.stagePolicy.deadlineMs = 250.0;
    options.flowFaults.hangStage("hls:GAUSS", 1'000);  // one-shot: retry is clean
    const FlowResult result = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_FALSE(result.diagnostics.anyDegraded());
    EXPECT_EQ(outcomeOf(result, "GAUSS").attempts, 2u);
    EXPECT_GE(result.diagnostics.stageTimeouts, 1u);
    EXPECT_EQ(result.bitstream.serialize(), referenceResult().bitstream.serialize());
}

// ---------------------------------------------------------------------------
// Dispatch parity: a flow whose stages run on a scheduler's thread must
// leave the same journal and the same per-node diagnostics as one that
// runs them inline, even under injected failures.

/// Stage scheduler with one worker thread (the service's shared pool in
/// miniature).
class OneWorkerScheduler : public StageScheduler {
public:
    OneWorkerScheduler() : thread_([this] { loop(); }) {}
    ~OneWorkerScheduler() override {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }
    OneWorkerScheduler(const OneWorkerScheduler&) = delete;
    OneWorkerScheduler& operator=(const OneWorkerScheduler&) = delete;

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
    std::thread thread_;
};

TEST(FlowRecovery, SchedulerDispatchLeavesIdenticalJournalAndDiagnostics) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dirInline = freshDir("inline");
    const std::string dirScheduled = freshDir("scheduled");
    const auto runWith = [&](const std::string& dir,
                             std::shared_ptr<StageScheduler> scheduler) {
        FlowOptions options;
        options.outputDir = dir;
        options.stageScheduler = std::move(scheduler);
        options.transientHlsFailures["EDGE"] = 1;
        return Flow(options, kernels).run("proj", quickstartGraph());
    };
    const FlowResult inlined = runWith(dirInline, nullptr);
    const FlowResult scheduled = runWith(dirScheduled, std::make_shared<OneWorkerScheduler>());

    const FlowJournal journalInline = FlowJournal::open(journalPathOf(dirInline));
    const FlowJournal journalScheduled = FlowJournal::open(journalPathOf(dirScheduled));
    EXPECT_EQ(journalInline.renderText(), journalScheduled.renderText());
    EXPECT_FALSE(journalInline.renderText().empty());

    ASSERT_EQ(inlined.diagnostics.nodes.size(), scheduled.diagnostics.nodes.size());
    for (std::size_t i = 0; i < inlined.diagnostics.nodes.size(); ++i) {
        const auto& a = inlined.diagnostics.nodes[i];
        const auto& b = scheduled.diagnostics.nodes[i];
        EXPECT_EQ(a.node, b.node);
        EXPECT_EQ(a.degraded, b.degraded);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.cacheHit, b.cacheHit);
        EXPECT_EQ(a.storeHit, b.storeHit);
        EXPECT_EQ(a.artifactKey, b.artifactKey);
        EXPECT_DOUBLE_EQ(a.toolSeconds, b.toolSeconds);
    }
    EXPECT_EQ(inlined.diagnostics.render(), scheduled.diagnostics.render());
    EXPECT_EQ(inlined.bitstream.serialize(), scheduled.bitstream.serialize());

    // The per-stage table agrees field by field (hostMs is the only
    // non-deterministic column and is deliberately excluded).
    ASSERT_EQ(inlined.diagnostics.stages.size(), scheduled.diagnostics.stages.size());
    ASSERT_FALSE(inlined.diagnostics.stages.empty());
    for (std::size_t i = 0; i < inlined.diagnostics.stages.size(); ++i) {
        const auto& a = inlined.diagnostics.stages[i];
        const auto& b = scheduled.diagnostics.stages[i];
        EXPECT_EQ(a.stage, b.stage);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.timeouts, b.timeouts);
        EXPECT_DOUBLE_EQ(a.toolSeconds, b.toolSeconds);
        EXPECT_EQ(a.source, b.source);
        EXPECT_EQ(a.committed, b.committed);
    }

    // Every written artifact, REPORT.md included, is byte-identical
    // across dispatch modes.
    const auto artifactBytes = [](const std::string& dir) {
        std::map<std::string, std::string> files;
        const std::filesystem::path root = std::filesystem::path(dir) / "proj";
        for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
            if (!entry.is_regular_file()) {
                continue;
            }
            std::ifstream in(entry.path(), std::ios::binary);
            std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
            files.emplace(std::filesystem::relative(entry.path(), root).string(),
                          std::move(bytes));
        }
        return files;
    };
    const auto filesInline = artifactBytes(dirInline);
    EXPECT_FALSE(filesInline.empty());
    EXPECT_EQ(filesInline, artifactBytes(dirScheduled));
    std::filesystem::remove_all(dirInline);
    std::filesystem::remove_all(dirScheduled);
}

// ---------------------------------------------------------------------------
// Journal robustness: torn tails are compacted; changed flow inputs reset
// the journal rather than resuming against stale commits.

TEST(FlowRecovery, TornJournalTailIsCompactedAndResumeStillWorks) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("torn");
    FlowOptions options;
    options.outputDir = dir;
    (void)Flow(options, kernels).run("proj", quickstartGraph());

    // Simulate a crash mid-append: a partial record with no newline.
    {
        std::ofstream torn(journalPathOf(dir), std::ios::app | std::ios::binary);
        torn << R"({"seq": 99, "event": "com)";
    }
    const FlowJournal compacted = FlowJournal::open(journalPathOf(dir));
    for (const auto& record : compacted.records()) {
        EXPECT_NE(record.seq, 99u);
    }

    const FlowResult resumed = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(resumed.diagnostics.engineRuns(), 0u);
    EXPECT_EQ(resumed.diagnostics.storeHits(), 3u);
    EXPECT_EQ(resumed.bitstream.serialize(), referenceResult().bitstream.serialize());
    std::filesystem::remove_all(dir);
}

TEST(FlowRecovery, ChangedInputsResetTheJournal) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("reset");
    FlowOptions options;
    options.outputDir = dir;
    (void)Flow(options, kernels).run("proj", quickstartGraph());

    FlowOptions bumped = options;
    bumped.toolVersion = "socgen-hls-2";  // invalidates keys AND the fingerprint
    const FlowResult rebuilt = Flow(bumped, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(rebuilt.diagnostics.engineRuns(), 3u);
    EXPECT_EQ(rebuilt.diagnostics.storeHits(), 0u);
    EXPECT_EQ(rebuilt.diagnostics.resumedStages, 0u);
    for (const auto& n : rebuilt.diagnostics.nodes) {
        EXPECT_FALSE(n.resumedFromJournal) << n.node;
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fingerprint property: every FlowOptions field belongs to exactly one
// class, and perturbing that field alone must move the fingerprint (read
// back from the journal header) and the written artifacts as its class
// says:
//  - Output: both change — the field can change what the flow writes;
//  - CacheIdentity: only the fingerprint changes (toolVersion renames
//    every artifact key without changing a byte of the project);
//  - Neither: fault hooks and execution-only fields.
// A field added to FlowOptions fails the static_assert below until it is
// classified here, so it can neither silently skip the fingerprint nor
// reset journals for nothing.

/// Converts to any field type; probing `T{AnyField{}...}` counts the
/// fields of an aggregate without naming them.
struct AnyField {
    template <typename T>
    operator T() const;  // declared only: used in unevaluated probes
};

template <typename T, typename... Fields>
constexpr std::size_t aggregateFieldCount() {
    if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
        return aggregateFieldCount<T, Fields..., AnyField>();
    } else {
        return sizeof...(Fields);
    }
}

static_assert(aggregateFieldCount<FlowOptions>() == 19,
              "classify the new FlowOptions field in the fingerprint table");
static_assert(aggregateFieldCount<soc::FpgaDevice>() == 7,
              "classify the new FpgaDevice field in the fingerprint table");

enum class FieldClass { Output, CacheIdentity, Neither };

struct FlowSnapshot {
    std::string fingerprint;
    std::map<std::string, std::string> artifacts;  ///< project-relative path -> bytes
    std::size_t resumedStages = 0;
};

/// Runs the quickstart flow into `dir` and captures the journal header's
/// fingerprint plus every written project file.
FlowSnapshot snapshotFlow(const FlowOptions& options, const std::string& dir,
                          const hls::KernelLibrary& kernels = exampleKernels()) {
    FlowOptions run = options;
    run.outputDir = dir;
    FlowSnapshot snap;
    const FlowResult result = Flow(run, kernels).run("proj", quickstartGraph());
    snap.resumedStages = result.diagnostics.resumedStages;
    const FlowJournal journal = FlowJournal::open(journalPathOf(dir));
    for (const JournalRecord& record : journal.records()) {
        if (record.event == "header") {
            snap.fingerprint = record.digest;
        }
    }
    const std::filesystem::path root = dir + "/proj";
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
        const std::string rel = std::filesystem::relative(entry.path(), root).string();
        if (entry.is_regular_file()) {
            snap.artifacts[rel] = readTextFile(entry.path().string());
        }
    }
    return snap;
}

class NullSubscriber : public FlowEventSubscriber {
public:
    void onEvent(const FlowEvent&) override {}
};

TEST(FlowRecovery, FingerprintCoversExactlyTheOutputInputs) {
    struct Perturbation {
        std::string field;
        FieldClass cls;
        std::function<void(FlowOptions&)> apply;
    };
    hls::Directives noPipelining;
    noPipelining.pipelineLoops = false;
    const std::string scratch = freshDir("fp_scratch");
    std::filesystem::create_directories(scratch);

    const std::vector<Perturbation> table = {
        {"device.part", FieldClass::Output,
         [](FlowOptions& o) { o.device.part = "xc7z045ffg900-2"; }},
        {"device.board", FieldClass::Output,
         [](FlowOptions& o) { o.device.board = "xilinx.com:zc706:part0:1.4"; }},
        // Capacities show in the utilisation report's worst-resource
        // figure, so each shrinks until its resource is the scarcest
        // (the design needs about 4.3k LUT, 5.3k FF, 4 RAMB18, 2 DSP).
        {"device.lut", FieldClass::Output, [](FlowOptions& o) { o.device.lut *= 2; }},
        {"device.ff", FieldClass::Output, [](FlowOptions& o) { o.device.ff = 20000; }},
        {"device.bram18", FieldClass::Output, [](FlowOptions& o) { o.device.bram18 = 20; }},
        {"device.dsp", FieldClass::Output, [](FlowOptions& o) { o.device.dsp = 10; }},
        // Above the achieved clock: the report flips to TIMING FAILED.
        {"device.fabricClockMhz", FieldClass::Output,
         [](FlowOptions& o) { o.device.fabricClockMhz = 200.0; }},
        {"dmaPolicy", FieldClass::Output,
         [](FlowOptions& o) { o.dmaPolicy = soc::DmaPolicy::DmaPerLink; }},
        {"runSynthesis", FieldClass::Output,
         [](FlowOptions& o) { o.runSynthesis = false; }},
        {"generateSoftware", FieldClass::Output,
         [](FlowOptions& o) { o.generateSoftware = false; }},
        {"defaultDirectives", FieldClass::Output,
         [&](FlowOptions& o) { o.defaultDirectives = noPipelining; }},
        {"kernelDirectives", FieldClass::Output,
         [&](FlowOptions& o) { o.kernelDirectives["GAUSS"] = noPipelining; }},
        {"toolVersion", FieldClass::CacheIdentity,
         [](FlowOptions& o) { o.toolVersion = "socgen-hls-2"; }},
        // Every row already runs in its own directory.
        {"outputDir", FieldClass::Neither, [](FlowOptions&) {}},
        {"stagePolicy", FieldClass::Neither,
         [](FlowOptions& o) {
             o.stagePolicy.maxAttempts = 5;
             o.stagePolicy.seed = 7;
         }},
        {"flowFaults", FieldClass::Neither,
         [](FlowOptions& o) { o.flowFaults.hangStage("integrate", 1); }},
        // A kernel of the library that the graph does not instantiate: the
        // hook is armed but nothing fails, so nothing may change.
        {"injectHlsFailures", FieldClass::Neither,
         [](FlowOptions& o) { o.injectHlsFailures = {"ADD"}; }},
        {"transientHlsFailures", FieldClass::Neither,
         [](FlowOptions& o) { o.transientHlsFailures["MUL"] = 1; }},
        {"hlsFailurePolicy", FieldClass::Neither,
         [](FlowOptions& o) { o.hlsFailurePolicy = HlsFailurePolicy::Abort; }},
        {"traceOutPath", FieldClass::Neither,
         [&](FlowOptions& o) { o.traceOutPath = scratch + "/trace.json"; }},
        {"toolLatencyMsPerToolSecond", FieldClass::Neither,
         [](FlowOptions& o) { o.toolLatencyMsPerToolSecond = 0.001; }},
        {"subscribers", FieldClass::Neither,
         [](FlowOptions& o) {
             o.subscribers.push_back(std::make_shared<NullSubscriber>());
         }},
        {"sharedStore", FieldClass::Neither,
         [&](FlowOptions& o) {
             o.sharedStore = std::make_shared<ArtifactStore>(scratch + "/store");
         }},
        {"synthGate", FieldClass::Neither,
         [](FlowOptions& o) { o.synthGate = std::make_shared<SynthGate>(); }},
        {"stageScheduler", FieldClass::Neither,
         [](FlowOptions& o) { o.stageScheduler = std::make_shared<OneWorkerScheduler>(); }},
    };
    // One row per field, nested device fields counted individually.
    EXPECT_EQ(table.size(), aggregateFieldCount<FlowOptions>() - 1 +
                                aggregateFieldCount<soc::FpgaDevice>());

    const FlowSnapshot base = snapshotFlow(FlowOptions{}, freshDir("fp_base"));
    ASSERT_FALSE(base.fingerprint.empty());
    ASSERT_FALSE(base.artifacts.empty());
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Perturbation& row = table[i];
        SCOPED_TRACE(row.field);
        FlowOptions options;
        row.apply(options);
        const std::string dir = freshDir("fp_" + std::to_string(i));
        const FlowSnapshot snap = snapshotFlow(options, dir);
        const bool fingerprintMoved = snap.fingerprint != base.fingerprint;
        const bool artifactsMoved = snap.artifacts != base.artifacts;
        EXPECT_EQ(fingerprintMoved, row.cls != FieldClass::Neither);
        EXPECT_EQ(artifactsMoved, row.cls == FieldClass::Output);
        std::filesystem::remove_all(dir);
    }
    std::filesystem::remove_all(freshDir("fp_base"));
    std::filesystem::remove_all(scratch);
}

/// Counts the DigestMismatch events a flow publishes.
class MismatchCounter : public FlowEventSubscriber {
public:
    void onEvent(const FlowEvent& event) override {
        if (event.kind == FlowEventKind::DigestMismatch) {
            ++mismatches;
        }
    }
    std::size_t mismatches = 0;
};

TEST(FlowRecovery, KernelChangeResetsTheJournal) {
    // Same inputs: the rerun resumes the journal the first run wrote.
    const std::string dir = freshDir("kernel_change");
    const FlowSnapshot plain = snapshotFlow(FlowOptions{}, dir);
    const FlowSnapshot again = snapshotFlow(FlowOptions{}, dir);
    EXPECT_EQ(again.fingerprint, plain.fingerprint);
    EXPECT_GT(again.resumedStages, 0u);
    // The resumed run's report says its HLS cores came from the store;
    // every other file is byte-identical.
    std::map<std::string, std::string> plainFiles = plain.artifacts;
    std::map<std::string, std::string> resumedFiles = again.artifacts;
    EXPECT_NE(resumedFiles["REPORT.md"].find("| store hit |"), std::string::npos);
    EXPECT_EQ(plainFiles["REPORT.md"].find("| store hit |"), std::string::npos);
    plainFiles.erase("REPORT.md");
    resumedFiles.erase("REPORT.md");
    EXPECT_EQ(resumedFiles, plainFiles);

    // One kernel body changed (GAUSS over a narrower image): the rerun
    // into the same directory gets a new fingerprint, starts a fresh
    // journal instead of disagreeing with the old commits, and writes
    // what a cold run of the changed library writes.
    hls::KernelLibrary changed;
    changed.add(apps::makeAddKernel());
    changed.add(apps::makeMulKernel());
    changed.add(apps::makeGaussKernel(32));
    changed.add(apps::makeEdgeKernel(64));
    const auto counter = std::make_shared<MismatchCounter>();
    FlowOptions watched;
    watched.subscribers.push_back(counter);
    const FlowSnapshot rerun = snapshotFlow(watched, dir, changed);
    EXPECT_NE(rerun.fingerprint, plain.fingerprint);
    EXPECT_EQ(counter->mismatches, 0u);
    EXPECT_EQ(rerun.resumedStages, 0u);
    const std::string coldDir = freshDir("kernel_change_cold");
    const FlowSnapshot cold = snapshotFlow(FlowOptions{}, coldDir, changed);
    EXPECT_EQ(rerun.fingerprint, cold.fingerprint);
    std::map<std::string, std::string> rerunFiles = rerun.artifacts;
    std::map<std::string, std::string> coldFiles = cold.artifacts;
    EXPECT_NE(rerunFiles, plain.artifacts);
    rerunFiles.erase("REPORT.md");
    coldFiles.erase("REPORT.md");
    EXPECT_EQ(rerunFiles, coldFiles);
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(coldDir);
}

// ---------------------------------------------------------------------------
// Codec: a decoded artifact is interchangeable with a fresh result, and
// damage anywhere in the byte stream is detected.

TEST(FlowRecovery, HlsResultCodecRoundTrips) {
    const hls::KernelLibrary kernels = exampleKernels();
    const FlowResult result = Flow(FlowOptions{}, kernels).run("proj", quickstartGraph());
    for (const std::string& node : graphNodes()) {
        const hls::HlsResult& original = result.hlsResults.at(node);
        const std::string bytes = hls::encodeHlsResult(original);
        const hls::HlsResult decoded = hls::decodeHlsResult(bytes);
        EXPECT_EQ(decoded.kernelName, original.kernelName);
        EXPECT_EQ(decoded.vhdl, original.vhdl);
        EXPECT_EQ(decoded.verilog, original.verilog);
        EXPECT_EQ(decoded.directiveText, original.directiveText);
        EXPECT_EQ(decoded.reportText, original.reportText);
        EXPECT_DOUBLE_EQ(decoded.toolSeconds, original.toolSeconds);
        EXPECT_EQ(decoded.resources, original.resources);
        EXPECT_EQ(decoded.program.ports.size(), original.program.ports.size());
        EXPECT_EQ(decoded.netlist.cells().size(), original.netlist.cells().size());
        EXPECT_EQ(decoded.netlist.nets().size(), original.netlist.nets().size());
        // Re-encoding the decode is byte-stable (canonical form).
        EXPECT_EQ(hls::encodeHlsResult(decoded), bytes);
    }
}

TEST(FlowRecovery, CodecRejectsTruncationAndTrailingGarbage) {
    const hls::KernelLibrary kernels = exampleKernels();
    const FlowResult result = Flow(FlowOptions{}, kernels).run("proj", quickstartGraph());
    const std::string bytes = hls::encodeHlsResult(result.hlsResults.at("MUL"));
    EXPECT_THROW((void)hls::decodeHlsResult(bytes.substr(0, bytes.size() / 2)),
                 ArtifactError);
    EXPECT_THROW((void)hls::decodeHlsResult(bytes + "x"), ArtifactError);
    EXPECT_THROW((void)hls::decodeHlsResult(""), ArtifactError);
}

// ---------------------------------------------------------------------------
// Store hygiene under crashes and concurrent writers

TEST(FlowRecovery, OrphanedTempFilesAreCollectedOnOpen) {
    const std::string dir = freshDir("tmp_gc");
    const std::string storeDir = dir + "/store";
    {
        const ArtifactStore store(storeDir);
        const FlowResult result =
            Flow(FlowOptions{}, exampleKernels()).run("proj", quickstartGraph());
        store.store("deadbeefdeadbeefdeadbeefdeadbeef", result.hlsResults.at("MUL"));
        EXPECT_EQ(store.reclaimedTempFiles(), 0u);
    }
    // A crashed writer's leftovers: write-then-rename temporaries that
    // never made it to their final name, in the objects directory.
    writeTextFile(storeDir + "/objects/0123.art.tmp1", "torn partial object");
    writeTextFile(storeDir + "/objects/4567.art.tmp42", "another one");

    const ArtifactStore reopened(storeDir);
    EXPECT_EQ(reopened.reclaimedTempFiles(), 2u);
    EXPECT_FALSE(fileExists(storeDir + "/objects/0123.art.tmp1"));
    EXPECT_FALSE(fileExists(storeDir + "/objects/4567.art.tmp42"));
    // The real object survived the sweep.
    EXPECT_TRUE(reopened.contains("deadbeefdeadbeefdeadbeefdeadbeef"));
    EXPECT_EQ(reopened.objectCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(FlowRecovery, TwoWritersSameDigestLeaveOneValidObject) {
    // Two flows (two tenants of a shared store) synthesize the same
    // kernel concurrently and both store under the same content key.
    // Whoever wins the rename, the object must validate and decode —
    // never a torn mix of both writers.
    const std::string dir = freshDir("two_writers");
    const ArtifactStore store(dir + "/store");
    const FlowResult result =
        Flow(FlowOptions{}, exampleKernels()).run("proj", quickstartGraph());
    const hls::HlsResult& artifact = result.hlsResults.at("GAUSS");
    const std::string key = "feedfacefeedfacefeedfacefeedface";

    constexpr int kWriters = 8;
    constexpr int kRoundsPerWriter = 25;
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&store, &artifact, &key] {
            for (int i = 0; i < kRoundsPerWriter; ++i) {
                store.store(key, artifact);
            }
        });
    }
    for (auto& thread : writers) {
        thread.join();
    }
    std::string whyMiss;
    const std::optional<hls::HlsResult> loaded = store.load(key, &whyMiss);
    ASSERT_TRUE(loaded.has_value()) << whyMiss;
    EXPECT_EQ(hls::encodeHlsResult(*loaded), hls::encodeHlsResult(artifact));
    EXPECT_EQ(store.objectCount(), 1u);
    // No orphaned temporaries survive the race either.
    const ArtifactStore reopened(dir + "/store");
    EXPECT_EQ(reopened.reclaimedTempFiles(), 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace socgen::core
