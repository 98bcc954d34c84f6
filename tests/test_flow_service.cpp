// Fault-tolerant multi-tenant flow service (CTest labels: resilience,
// flow-service): admission control with priority shedding, per-tenant
// quotas and circuit breakers, weighted-fair stage scheduling on one
// shared pool, cross-tenant HLS dedupe (warm and in-flight), and
// service-level crash-restart recovery — every admitted flow either
// completes bit-identically to a standalone run or terminates with a
// structured outcome, and a new service instance on the same root
// resumes every pending flow with zero re-synthesis of committed work.

#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/journal.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/svc/flow_service.hpp"
#include "socgen/svc/service_fault.hpp"
#include "socgen/svc/stage_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace socgen::svc {
namespace {

const hls::KernelLibrary& exampleKernels() {
    static const hls::KernelLibrary lib = [] {
        hls::KernelLibrary out;
        out.add(apps::makeAddKernel());
        out.add(apps::makeMulKernel());
        out.add(apps::makeGaussKernel(64));
        out.add(apps::makeEdgeKernel(64));
        return out;
    }();
    return lib;
}

core::TaskGraph quickstartGraph() {
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
    return core::parseDsl(dsl).graph;
}

const std::vector<std::string>& graphKernels() {
    static const std::vector<std::string> kernels = {"MUL", "GAUSS", "EDGE"};
    return kernels;
}

const std::vector<std::string>& graphStages() {
    static const std::vector<std::string> stages = {
        "scala",      "hls:MUL", "hls:GAUSS", "hls:EDGE", "integrate",
        "devicetree", "drivers", "synth",     "boot",     "artifacts"};
    return stages;
}

std::string freshDir(const std::string& name) {
    const std::string dir = testing::TempDir() + "/socgen_svc_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/// The bitstream digest a standalone (serviceless) flow produces for
/// `project` — the bit-identity reference for every service outcome.
const std::string& referenceDigest(const std::string& project) {
    static std::map<std::string, std::string> memo;
    static auto cache = std::make_shared<core::HlsCache>();
    const auto it = memo.find(project);
    if (it != memo.end()) {
        return it->second;
    }
    const core::FlowResult result =
        core::Flow(core::FlowOptions{}, exampleKernels(), cache)
            .run(project, quickstartGraph());
    return memo[project] = digest128(result.bitstream.serialize()).hex();
}

ServiceConfig baseConfig(const std::string& root) {
    ServiceConfig config;
    config.rootDir = root;
    config.stageWorkers = 4;
    config.flowRunners = 3;
    return config;
}

FlowRequest makeRequest(const std::string& tenant, const std::string& project) {
    FlowRequest request;
    request.tenant = tenant;
    request.project = project;
    request.graph = quickstartGraph();
    return request;
}

// ---------------------------------------------------------------------------
// Baseline: many tenants, concurrent flows, every outcome bit-identical
// to a standalone run, all on one shared stage pool.

TEST(FlowService, MultiTenantFlowsCompleteBitIdentical) {
    const std::string root = freshDir("multi");
    FlowService service(baseConfig(root), exampleKernels());
    std::vector<FlowHandle> handles;
    for (int t = 0; t < 4; ++t) {
        const std::string tenant = "tenant" + std::to_string(t);
        handles.push_back(service.submit(makeRequest(tenant, "proj" + std::to_string(t))));
    }
    for (const FlowHandle& handle : handles) {
        const RequestOutcome outcome = handle.wait();
        EXPECT_EQ(outcome.state, RequestState::Completed) << outcome.error;
        EXPECT_EQ(outcome.bitstreamDigest, referenceDigest(handle.project()))
            << handle.project();
        EXPECT_FALSE(outcome.diagnostics.anyDegraded());
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.admitted, 4u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_GT(service.poolStats().tasksExecuted, 0u);
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Cross-tenant dedupe: two tenants submitting identical kernels pay for
// each unique synthesis exactly once, service-wide — whether the second
// requester arrives after the first persisted (warm hit) or while the
// first is mid-synthesis (in-flight dedupe via the SynthGate). The
// invariant holds for every interleaving: total engine runs == unique
// kernel count.

TEST(FlowService, IdenticalKernelsSynthesizedOnceAcrossTenants) {
    const std::string root = freshDir("dedupe");
    FlowService service(baseConfig(root), exampleKernels());
    std::vector<FlowHandle> handles;
    for (int t = 0; t < 2; ++t) {
        for (int p = 0; p < 2; ++p) {
            handles.push_back(service.submit(makeRequest(
                "tenant" + std::to_string(t), "proj_t" + std::to_string(t) +
                                                  "_p" + std::to_string(p))));
        }
    }
    std::size_t engineRuns = 0;
    std::size_t reused = 0;
    for (const FlowHandle& handle : handles) {
        const RequestOutcome outcome = handle.wait();
        ASSERT_EQ(outcome.state, RequestState::Completed) << outcome.error;
        EXPECT_EQ(outcome.bitstreamDigest, referenceDigest(handle.project()));
        engineRuns += outcome.diagnostics.engineRuns();
        reused += outcome.diagnostics.cacheHits() + outcome.diagnostics.storeHits();
    }
    // 4 flows × 3 nodes = 12 HLS stages, 3 unique kernels: exactly 3
    // engine runs no matter how the flows interleave.
    EXPECT_EQ(engineRuns, graphKernels().size());
    EXPECT_EQ(reused, 12u - graphKernels().size());
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Admission control: the service-wide queue bound sheds the
// lowest-priority queued flow for a higher-priority submission and
// rejects the rest — structured outcomes, bounded memory, never a hang.

TEST(FlowService, OverloadShedsLowestPriorityAndRejectsRest) {
    const std::string root = freshDir("shed");
    ServiceConfig config = baseConfig(root);
    config.flowRunners = 1;
    config.maxQueuedFlows = 2;
    FlowService service(config, exampleKernels());
    TenantConfig low;
    low.priority = 0;
    TenantConfig high;
    high.priority = 5;
    service.configureTenant("low", low);
    service.configureTenant("high", high);

    // Occupy the single runner long enough for the queue to fill: the
    // blocker's integrate stage hangs ~400 ms.
    FlowRequest blocker = makeRequest("low", "blocker");
    blocker.faults.hangStage("integrate", 400);
    const FlowHandle blocked = service.submit(blocker);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    const FlowHandle q1 = service.submit(makeRequest("low", "q1"));
    const FlowHandle q2 = service.submit(makeRequest("low", "q2"));
    EXPECT_FALSE(q1.isTerminal());

    // Queue full: the high-priority flow sheds the oldest low-priority
    // queued flow (q1) and takes its slot.
    const FlowHandle vip = service.submit(makeRequest("high", "vip"));
    const RequestOutcome shedOutcome = q1.wait();
    EXPECT_EQ(shedOutcome.state, RequestState::Rejected);
    EXPECT_EQ(shedOutcome.rejectReason, RejectReason::Shed);
    EXPECT_FALSE(shedOutcome.error.empty());

    // Queue full again, and nothing ranks below "low": structured
    // Overloaded rejection for the incomer.
    const FlowHandle q3 = service.submit(makeRequest("low", "q3"));
    const RequestOutcome q3Outcome = q3.wait();
    EXPECT_EQ(q3Outcome.state, RequestState::Rejected);
    EXPECT_EQ(q3Outcome.rejectReason, RejectReason::Overloaded);

    EXPECT_EQ(blocked.wait().state, RequestState::Completed);
    EXPECT_EQ(vip.wait().state, RequestState::Completed);
    EXPECT_EQ(vip.wait().bitstreamDigest, referenceDigest("vip"));
    EXPECT_EQ(q2.wait().state, RequestState::Completed);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.rejectedOverloaded, 1u);
    EXPECT_EQ(stats.completed, 3u);

    // A shed flow's ledger entry is closed: a restart must not
    // resurrect a request the service rejected.
    service.drain();
    EXPECT_TRUE(fileExists(root + "/requests/low__q1.done"));
    std::filesystem::remove_all(root);
}

TEST(FlowService, TenantQueueDepthIsBounded) {
    const std::string root = freshDir("depth");
    ServiceConfig config = baseConfig(root);
    config.flowRunners = 1;
    FlowService service(config, exampleKernels());
    TenantConfig narrow;
    narrow.maxQueueDepth = 1;
    service.configureTenant("narrow", narrow);

    FlowRequest blocker = makeRequest("narrow", "first");
    blocker.faults.hangStage("integrate", 300);
    const FlowHandle first = service.submit(blocker);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const FlowHandle second = service.submit(makeRequest("narrow", "second"));
    const RequestOutcome outcome = second.wait();
    EXPECT_EQ(outcome.state, RequestState::Rejected);
    EXPECT_EQ(outcome.rejectReason, RejectReason::TenantQueueFull);

    // Another tenant is not affected by narrow's full queue.
    const FlowHandle other = service.submit(makeRequest("roomy", "third"));
    EXPECT_EQ(other.wait().state, RequestState::Completed);
    EXPECT_EQ(first.wait().state, RequestState::Completed);
    EXPECT_EQ(service.stats().rejectedTenantFull, 1u);
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Circuit breaker: a tenant whose flows keep faulting is quarantined
// (structured CircuitOpen rejections, no work wasted), then probed back
// in — one trial flow whose success closes the breaker.

TEST(FlowService, CircuitBreakerQuarantinesThenProbesBackIn) {
    const std::string root = freshDir("breaker");
    ServiceConfig config = baseConfig(root);
    config.breakerFaultThreshold = 2;
    config.breakerCooldownRejects = 2;
    FlowService service(config, exampleKernels());

    // A graph referencing a kernel nobody registered fails with a
    // structured DslError — the reproducible "broken tenant".
    const auto badRequest = [](const std::string& project) {
        constexpr const char* dsl = R"(
object bad extends App {
  tg nodes;
    tg node "NOPE" i "A" end;
  tg end_nodes;
  tg edges;
    tg connect "NOPE";
  tg end_edges;
}
)";
        FlowRequest request;
        request.tenant = "flaky";
        request.project = project;
        request.graph = core::parseDsl(dsl).graph;
        return request;
    };

    EXPECT_EQ(service.submit(badRequest("bad1")).wait().state, RequestState::Failed);
    EXPECT_EQ(service.submit(badRequest("bad2")).wait().state, RequestState::Failed);
    // Two consecutive faults tripped the breaker: quarantined.
    const RequestOutcome rejected = service.submit(badRequest("bad3")).wait();
    EXPECT_EQ(rejected.state, RequestState::Rejected);
    EXPECT_EQ(rejected.rejectReason, RejectReason::CircuitOpen);

    // The submission that completes the cooldown (the second strike
    // against the open breaker) flips it half-open and is admitted as
    // the probe. A healthy probe closes the breaker.
    const RequestOutcome probe = service.submit(makeRequest("flaky", "probe")).wait();
    EXPECT_EQ(probe.state, RequestState::Completed) << probe.error;
    const RequestOutcome after = service.submit(makeRequest("flaky", "after")).wait();
    EXPECT_EQ(after.state, RequestState::Completed);

    // Re-trip, then let a still-faulty probe through: the breaker
    // re-opens and the quarantine resumes.
    EXPECT_EQ(service.submit(badRequest("bad5")).wait().state, RequestState::Failed);
    EXPECT_EQ(service.submit(badRequest("bad6")).wait().state, RequestState::Failed);
    EXPECT_EQ(service.submit(badRequest("bad7")).wait().rejectReason,
              RejectReason::CircuitOpen);
    const RequestOutcome failedProbe = service.submit(badRequest("bad8")).wait();
    EXPECT_EQ(failedProbe.state, RequestState::Failed);
    EXPECT_EQ(service.submit(makeRequest("flaky", "again")).wait().rejectReason,
              RejectReason::CircuitOpen);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.breakerTrips, 3u);   // bad2, bad6, the failed probe
    EXPECT_EQ(stats.rejectedBreaker, 3u);
    EXPECT_EQ(stats.failed, 5u);
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Deadline isolation: a hung stage only costs its own flow (one
// abandoned attempt and a retry); concurrent tenants complete untouched.

TEST(FlowService, DeadlineAbandonsHungStageWithoutCollateral) {
    const std::string root = freshDir("deadline");
    FlowService service(baseConfig(root), exampleKernels());

    FlowRequest hung = makeRequest("sleepy", "hung");
    hung.faults.hangStage("hls:GAUSS", 1'000);
    hung.stageDeadlineMs = 150.0;  // per-request deadline knob
    const FlowHandle hungHandle = service.submit(hung);
    const FlowHandle cleanHandle = service.submit(makeRequest("busy", "clean"));

    const RequestOutcome clean = cleanHandle.wait();
    EXPECT_EQ(clean.state, RequestState::Completed) << clean.error;
    EXPECT_EQ(clean.diagnostics.stageTimeouts, 0u);

    const RequestOutcome recovered = hungHandle.wait();
    EXPECT_EQ(recovered.state, RequestState::Completed) << recovered.error;
    EXPECT_GE(recovered.diagnostics.stageTimeouts, 1u);
    EXPECT_EQ(recovered.bitstreamDigest, referenceDigest("hung"));
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Crash-restart recovery: flows killed mid-run (simulated kill -9)
// leave pending ledger entries; a new service instance on the same root
// resumes every one of them bit-identically with zero re-synthesis of
// journal-committed HLS work.

TEST(FlowService, RestartRecoversPendingFlowsWithZeroResynthesis) {
    const std::string root = freshDir("restart");
    std::vector<std::string> crashedProjects;
    {
        FlowService service(baseConfig(root), exampleKernels());
        std::vector<FlowHandle> handles;
        for (int t = 0; t < 3; ++t) {
            // Crash after all HLS stages committed (integrate begins
            // only once every hls:* stage committed), so recovery must
            // show zero engine runs.
            FlowRequest request = makeRequest("tenant" + std::to_string(t),
                                              "crash" + std::to_string(t));
            request.faults.crashFlow("integrate", t % 2 == 0 ? 0 : 1);
            handles.push_back(service.submit(request));
        }
        const FlowHandle healthy = service.submit(makeRequest("tenant0", "healthy"));
        for (const FlowHandle& handle : handles) {
            const RequestOutcome outcome = handle.wait();
            EXPECT_EQ(outcome.state, RequestState::Crashed);
            EXPECT_FALSE(outcome.error.empty());
            crashedProjects.push_back(handle.project());
        }
        EXPECT_EQ(healthy.wait().state, RequestState::Completed);
        EXPECT_EQ(service.stats().crashed, 3u);
        // Pending entries for the crashed flows, closed for the healthy.
        for (const std::string& project : crashedProjects) {
            EXPECT_FALSE(fileExists(root + "/requests/" +
                                    ("tenant" + project.substr(5)) + "__" + project +
                                    ".done"));
        }
        EXPECT_TRUE(fileExists(root + "/requests/tenant0__healthy.done"));
    }

    FlowService restarted(baseConfig(root), exampleKernels());
    std::vector<FlowHandle> recovered = restarted.recoverPending();
    ASSERT_EQ(recovered.size(), crashedProjects.size());
    for (const FlowHandle& handle : recovered) {
        const RequestOutcome outcome = handle.wait();
        ASSERT_EQ(outcome.state, RequestState::Completed) << outcome.error;
        EXPECT_EQ(outcome.bitstreamDigest, referenceDigest(handle.project()));
        // Zero re-synthesis: every node of every recovered flow is
        // served from the store (the crash happened past every HLS
        // commit), confirmed by the journal.
        EXPECT_EQ(outcome.diagnostics.engineRuns(), 0u) << handle.project();
        for (const auto& node : outcome.diagnostics.nodes) {
            EXPECT_TRUE(node.storeHit || node.cacheHit) << node.node;
            EXPECT_EQ(node.attempts, 0u) << node.node;
            EXPECT_DOUBLE_EQ(node.toolSeconds, 0.0) << node.node;
        }
        EXPECT_EQ(outcome.diagnostics.digestMismatches, 0u);
    }
    EXPECT_EQ(restarted.stats().recovered, crashedProjects.size());
    // Recovery closed the ledger: a second recovery pass finds nothing.
    EXPECT_TRUE(restarted.recoverPending().empty());
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// The chaos sweep (the ISSUE's acceptance gate): 8 tenants × every
// service fault kind × 8 seeds. Every admitted flow either completes
// bit-identically or terminates with a structured outcome; a service
// restart then recovers every pending flow bit-identically, with zero
// re-synthesis of journal-committed HLS stages.

TEST(FlowService, ChaosSweepEveryFaultKindEverySeed) {
    const std::vector<ServiceFaultKind>& kinds = allServiceFaultKinds();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::string root = freshDir("chaos_s" + std::to_string(seed));
        const ServiceFaultPlan chaos{seed};
        std::vector<FlowHandle> handles;
        std::vector<std::string> pendingAfterCrash;  // "<tenant>|<project>"
        // Kernels whose shared store object an ArtifactCorrupt tenant
        // flipped this seed: their recovery may legitimately include one
        // healing re-synthesis, so the strict zero-resynthesis assertion
        // exempts them.
        std::set<std::string> corruptedKernels;
        {
            ServiceConfig config = baseConfig(root);
            config.flowRunners = 4;
            config.maxQueuedFlows = 16;
            FlowService service(config, exampleKernels());
            for (int t = 0; t < 8; ++t) {
                const std::string tenant = "t" + std::to_string(t);
                const std::string project =
                    "p" + std::to_string(t) + "_s" + std::to_string(seed);
                const ServiceFaultKind kind =
                    kinds[(static_cast<std::size_t>(t) + seed) % kinds.size()];
                FlowRequest request = makeRequest(tenant, project);
                request.faults = chaos.planFor(tenant, project, kind, graphStages(),
                                               graphKernels(), /*hangMs=*/400);
                if (kind == ServiceFaultKind::ArtifactCorrupt) {
                    corruptedKernels.insert(graphKernels()[static_cast<std::size_t>(
                        chaos.mix(tenant, project) % graphKernels().size())]);
                }
                if (kind == ServiceFaultKind::StageHang) {
                    request.stageDeadlineMs = 120.0;
                }
                handles.push_back(service.submit(request));
                if (kind == ServiceFaultKind::QueueStorm) {
                    // Burst: more submissions than the tenant's queue
                    // depth; overflow must come back as structured
                    // rejections, never block or crash the service.
                    TenantConfig tight;
                    tight.maxQueueDepth = 2;
                    service.configureTenant(tenant, tight);
                    const std::size_t burst = 3 + chaos.mix(tenant, project) % 3;
                    for (std::size_t b = 0; b < burst; ++b) {
                        handles.push_back(service.submit(makeRequest(
                            tenant, project + "_storm" + std::to_string(b))));
                    }
                }
            }
            service.drain();
            for (const FlowHandle& handle : handles) {
                ASSERT_TRUE(handle.isTerminal());
                const RequestOutcome outcome = handle.wait();
                switch (outcome.state) {
                case RequestState::Completed:
                    EXPECT_EQ(outcome.bitstreamDigest, referenceDigest(handle.project()))
                        << "seed " << seed << " " << handle.project();
                    break;
                case RequestState::Rejected:
                    EXPECT_NE(outcome.rejectReason, RejectReason::None);
                    EXPECT_FALSE(outcome.error.empty());
                    break;
                case RequestState::Crashed:
                    EXPECT_FALSE(outcome.error.empty());
                    pendingAfterCrash.push_back(handle.tenant() + "|" + handle.project());
                    break;
                case RequestState::Failed:
                    EXPECT_FALSE(outcome.error.empty());
                    break;
                default:
                    FAIL() << "non-terminal outcome in drained service";
                }
            }
            ASSERT_FALSE(pendingAfterCrash.empty());  // crash kinds always fire
        }

        // What did each crashed flow durably commit before dying?
        std::map<std::string, std::vector<std::string>> committedOf;
        for (const std::string& key : pendingAfterCrash) {
            const std::string tenant = key.substr(0, key.find('|'));
            const std::string project = key.substr(key.find('|') + 1);
            const core::FlowJournal journal = core::FlowJournal::open(
                root + "/tenants/" + tenant + "/.socgen/journal/" + project + ".jsonl");
            committedOf[key] = journal.committedStages();
        }

        // Kill + restart: the new instance must resume every pending
        // flow bit-identically with zero re-synthesis of committed work.
        FlowService restarted(baseConfig(root), exampleKernels());
        const std::vector<FlowHandle> recovered = restarted.recoverPending();
        ASSERT_EQ(recovered.size(), pendingAfterCrash.size()) << "seed " << seed;
        for (const FlowHandle& handle : recovered) {
            const RequestOutcome outcome = handle.wait();
            ASSERT_EQ(outcome.state, RequestState::Completed)
                << "seed " << seed << ": " << outcome.error;
            EXPECT_EQ(outcome.bitstreamDigest, referenceDigest(handle.project()));
            EXPECT_EQ(outcome.diagnostics.digestMismatches, 0u);
            const auto& committed =
                committedOf.at(handle.tenant() + "|" + handle.project());
            for (const std::string& stage : committed) {
                if (stage.rfind("hls:", 0) != 0) {
                    continue;
                }
                const std::string nodeName = stage.substr(4);
                if (corruptedKernels.count(nodeName) > 0) {
                    continue;  // may need one healing re-synthesis
                }
                for (const auto& node : outcome.diagnostics.nodes) {
                    if (node.node != nodeName) {
                        continue;
                    }
                    EXPECT_EQ(node.attempts, 0u)
                        << "seed " << seed << ": " << stage << " re-synthesized";
                    EXPECT_DOUBLE_EQ(node.toolSeconds, 0.0) << stage;
                    EXPECT_TRUE(node.storeHit || node.cacheHit) << stage;
                }
            }
        }
        std::filesystem::remove_all(root);
    }
}

// ---------------------------------------------------------------------------
// Every stage runs in-process. ServiceConfig::workers survives only for
// source compatibility and must stay 0: a caller that asks for isolated
// worker processes gets a construction error, not a silent in-process
// service.

TEST(FlowService, RejectsOutOfProcessWorkers) {
    const std::string root = freshDir("workers");
    ServiceConfig config = baseConfig(root);
    config.workers = 2;
    EXPECT_THROW(FlowService(config, exampleKernels()), Error);
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Self-healing store, exercised through the service: an object corrupted
// on disk between service generations is quarantined — by the startup
// scrub or by the read path — and transparently re-synthesized, with the
// flow completing bit-identically either way.

TEST(FlowService, CorruptedObjectIsQuarantinedByStartupScrub) {
    const std::string root = freshDir("scrubheal");
    {
        FlowService service(baseConfig(root), exampleKernels());
        const RequestOutcome outcome =
            service.submit(makeRequest("t0", "seedrun")).wait();
        ASSERT_EQ(outcome.state, RequestState::Completed);
    }
    std::size_t objects = 0;
    {
        const core::ArtifactStore store(root + "/store");
        objects = store.objectCount();
        ASSERT_GE(objects, 3u);
        store.corruptObject(store.keys().front());
    }
    FlowService healed(baseConfig(root), exampleKernels());
    EXPECT_EQ(healed.scrubQuarantined(), 1u);
    EXPECT_EQ(healed.store().objectCount(), objects - 1);
    const RequestOutcome outcome = healed.submit(makeRequest("t1", "healrun")).wait();
    ASSERT_EQ(outcome.state, RequestState::Completed);
    EXPECT_EQ(outcome.bitstreamDigest, referenceDigest("healrun"));
    // The quarantined key was re-synthesized and re-committed.
    EXPECT_EQ(healed.store().objectCount(), objects);
}

TEST(FlowService, CorruptedObjectIsQuarantinedOnReadPath) {
    const std::string root = freshDir("readheal");
    {
        FlowService service(baseConfig(root), exampleKernels());
        const RequestOutcome outcome =
            service.submit(makeRequest("t0", "seedrun")).wait();
        ASSERT_EQ(outcome.state, RequestState::Completed);
    }
    std::size_t objects = 0;
    {
        const core::ArtifactStore store(root + "/store");
        objects = store.objectCount();
        store.corruptObject(store.keys().front());
    }
    ServiceConfig config = baseConfig(root);
    config.scrubOnOpen = false;  // force the read path to find the corpse
    FlowService service(config, exampleKernels());
    EXPECT_EQ(service.scrubQuarantined(), 0u);
    const RequestOutcome outcome = service.submit(makeRequest("t1", "healrun")).wait();
    ASSERT_EQ(outcome.state, RequestState::Completed);
    EXPECT_EQ(outcome.bitstreamDigest, referenceDigest("healrun"));
    EXPECT_EQ(service.store().quarantinedObjects(), 1u);
    ASSERT_EQ(service.store().quarantineRecords().size(), 1u);
    EXPECT_FALSE(service.store().quarantineRecords()[0].reason.empty());
    EXPECT_EQ(service.store().objectCount(), objects);
}

// ---------------------------------------------------------------------------
// The shared stage pool's weighted fair queueing, tested directly: with
// one worker and pre-filled queues, dispatch counts are proportional to
// weights in every prefix, and the in-flight cap is never exceeded.

TEST(FlowService, StagePoolDispatchesByWeightDeterministically) {
    SharedStagePool pool(1);
    pool.configureTenant("heavy", /*weight=*/2, /*maxInFlightStages=*/1);
    pool.configureTenant("light", /*weight=*/1, /*maxInFlightStages=*/1);
    const auto heavy = pool.schedulerFor("heavy");
    const auto light = pool.schedulerFor("light");

    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    std::vector<std::string> order;
    std::size_t done = 0;

    // Plug the single worker so both queues fill before dispatch starts.
    const auto plug = pool.schedulerFor("plug");
    plug->submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
        ++done;
        cv.notify_all();
    });
    const auto record = [&](const char* name) {
        return [&, name] {
            const std::lock_guard<std::mutex> lock(mutex);
            order.push_back(name);
            ++done;
            cv.notify_all();
        };
    };
    for (int i = 0; i < 6; ++i) {
        heavy->submit(record("heavy"));
    }
    for (int i = 0; i < 3; ++i) {
        light->submit(record("light"));
    }
    {
        const std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done == 10; });
    }
    ASSERT_EQ(order.size(), 9u);
    // Weight 2 vs 1: in every prefix, heavy never lags light and never
    // leads by more than its fair 2:1 share allows.
    int heavySeen = 0;
    int lightSeen = 0;
    for (const std::string& name : order) {
        if (name == "heavy") {
            ++heavySeen;
        } else {
            ++lightSeen;
        }
        EXPECT_LE(lightSeen, heavySeen / 2 + 1) << "light overserved";
        EXPECT_LE(heavySeen, 2 * lightSeen + 2) << "heavy overserved";
    }
    EXPECT_EQ(heavySeen, 6);
    EXPECT_EQ(lightSeen, 3);
    EXPECT_EQ(pool.stats().tasksExecuted, 10u);
}

// ---------------------------------------------------------------------------
// Seed determinism of the chaos assignment itself: the same (seed,
// tenant, project, kind) always renders the same plan; different seeds
// pick different victims somewhere in the sweep.

TEST(FlowService, ServiceFaultPlansAreSeedDeterministic) {
    const ServiceFaultPlan a{7};
    const ServiceFaultPlan b{7};
    const ServiceFaultPlan c{8};
    bool anyDifference = false;
    for (const ServiceFaultKind kind : allServiceFaultKinds()) {
        for (int t = 0; t < 4; ++t) {
            const std::string tenant = "t" + std::to_string(t);
            const sim::FaultPlan planA =
                a.planFor(tenant, "p", kind, graphStages(), graphKernels());
            const sim::FaultPlan planB =
                b.planFor(tenant, "p", kind, graphStages(), graphKernels());
            const sim::FaultPlan planC =
                c.planFor(tenant, "p", kind, graphStages(), graphKernels());
            EXPECT_EQ(planA.render(), planB.render()) << toString(kind);
            if (planA.render() != planC.render()) {
                anyDifference = true;
            }
        }
    }
    EXPECT_TRUE(anyDifference);
}

} // namespace
} // namespace socgen::svc
