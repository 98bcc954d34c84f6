#pragma once

#include "socgen/core/flow.hpp"
#include "socgen/svc/stage_pool.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace socgen::svc {

/// Per-tenant service-level knobs (the stage-level knobs — weight and
/// in-flight cap — are forwarded to the SharedStagePool).
struct TenantConfig {
    unsigned weight = 1;             ///< WFQ share of the stage pool
    unsigned maxInFlightStages = 4;  ///< concurrently running stages cap
    std::size_t maxQueueDepth = 8;   ///< queued + running flows for this tenant
    int priority = 0;                ///< admission priority: lower is shed first
};

struct ServiceConfig {
    /// Service root. Layout: rootDir/store (shared artifact store),
    /// rootDir/tenants/<tenant>/ (per-tenant journals + artifacts),
    /// rootDir/requests/ (the durable request ledger).
    std::string rootDir;
    unsigned stageWorkers = 4;  ///< shared stage pool size
    unsigned flowRunners = 2;   ///< concurrently *running* flows
    /// Service-wide bound on queued (admitted, not yet running) flows.
    /// At the bound, a new submission sheds the lowest-priority queued
    /// flow if one ranks strictly below it, else is rejected Overloaded
    /// — admission is always O(queue), memory always bounded.
    std::size_t maxQueuedFlows = 32;
    core::StagePolicy stagePolicy;  ///< default per-stage retry/deadline policy
    /// Circuit breaker: this many consecutive faulted flows (failed or
    /// crashed) quarantine the tenant (submissions rejected CircuitOpen)...
    unsigned breakerFaultThreshold = 3;
    /// ...until this many rejections have accumulated, after which one
    /// probe flow is admitted; a clean probe closes the breaker, a
    /// faulted one re-opens it.
    unsigned breakerCooldownRejects = 4;
    /// Template for every flow's options (device, directives, backend,
    /// synthesis toggles). outputDir / store / gate / scheduler /
    /// policy / faults are overwritten per request by the service.
    core::FlowOptions flowDefaults;

    /// Must be 0: every stage runs in-process, and the constructor
    /// throws on any other value rather than silently dropping the
    /// isolation it asks for. Kept only because the service-mix
    /// benchmark assigns it; delete with ROADMAP item 1's next benchmark
    /// change.
    unsigned workers = 0;

    /// Run an ArtifactStore::scrub() pass at service start: every object
    /// in every shard is digest-verified, corrupt ones quarantined, so
    /// the store self-heals before the first tenant hits it.
    bool scrubOnOpen = true;
};

enum class RequestState {
    Queued,
    Running,
    Completed,
    Failed,    ///< structured failure (error recorded, ledger closed)
    Crashed,   ///< simulated kill -9: ledger entry stays pending for recovery
    Rejected,  ///< never admitted, or shed after admission
};

enum class RejectReason { None, Overloaded, TenantQueueFull, CircuitOpen, Shed };

[[nodiscard]] const char* toString(RequestState state);
[[nodiscard]] const char* toString(RejectReason reason);

/// One tenant's compile request.
struct FlowRequest {
    std::string tenant;
    std::string project;
    core::TaskGraph graph;
    /// Flow-level fault injection (chaos harness).
    sim::FaultPlan faults;
    std::map<std::string, unsigned> transientHlsFailures;
    /// Per-request deadline knobs, propagated into the StageSupervisor
    /// (0 keeps the service default): per-attempt deadline and total
    /// retry wall-clock cap.
    double stageDeadlineMs = 0.0;
    double maxRetryWallClockMs = 0.0;
};

struct RequestOutcome {
    RequestState state = RequestState::Queued;
    RejectReason rejectReason = RejectReason::None;
    std::string error;
    core::FlowDiagnostics diagnostics;
    std::string bitstreamDigest;  ///< bit-identity witness ("" if no synthesis)
    double waitMs = 0.0;          ///< submit → start (queueing delay)
    double runMs = 0.0;           ///< start → terminal
};

class FlowService;

/// Ticket for one submitted request; cheap to copy.
class FlowHandle {
public:
    /// Blocks until the request is terminal and returns its outcome.
    [[nodiscard]] RequestOutcome wait() const;
    [[nodiscard]] bool isTerminal() const;
    [[nodiscard]] const std::string& tenant() const;
    [[nodiscard]] const std::string& project() const;

private:
    friend class FlowService;
    struct Cell;
    std::shared_ptr<Cell> cell_;
};

struct ServiceStats {
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t crashed = 0;
    std::size_t shed = 0;
    std::size_t rejectedOverloaded = 0;
    std::size_t rejectedTenantFull = 0;
    std::size_t rejectedBreaker = 0;
    std::size_t breakerTrips = 0;
    std::size_t recovered = 0;
};

/// Long-lived in-process compile service: many tenants submit
/// FlowRequests concurrently; flows run on `flowRunners` runner threads
/// with every stage scheduled on one SharedStagePool (weighted fair
/// queueing + per-tenant quotas), deduping identical HLS work through
/// one shared ArtifactStore/HlsCache/SynthGate.
///
/// Robustness contract:
///  - admission control is bounded (tenant queue depth, service queue
///    bound with priority shedding) and rejections are structured
///    (RequestState::Rejected + reason), never exceptions or OOM;
///  - a tenant whose flows keep faulting is quarantined by a per-tenant
///    circuit breaker and later probed back in;
///  - every admitted request is durably recorded in rootDir/requests/
///    before it runs and marked done on structured completion/failure;
///    a crash (FlowCrashError — the simulated kill -9) leaves the
///    record pending, and a new service on the same root resumes every
///    pending flow via recoverPending() — bit-identically and with zero
///    re-synthesis, courtesy of the per-tenant FlowJournals and the
///    content-addressed store.
class FlowService {
public:
    /// `kernels` must outlive the service (flows hold a reference).
    FlowService(ServiceConfig config, const hls::KernelLibrary& kernels);
    ~FlowService();

    FlowService(const FlowService&) = delete;
    FlowService& operator=(const FlowService&) = delete;

    void configureTenant(const std::string& name, TenantConfig config);

    /// Admission-controlled, never-blocking submit: returns a handle
    /// whose outcome is either a terminal rejection (already resolved)
    /// or resolves when the flow finishes.
    [[nodiscard]] FlowHandle submit(FlowRequest request);

    /// Re-submits every ledger entry without a done marker — the flows
    /// in flight when the previous service instance died. Call once,
    /// right after construction on a root a crashed service left behind.
    std::vector<FlowHandle> recoverPending();

    /// Blocks until no request is queued or running.
    void drain();

    [[nodiscard]] ServiceStats stats() const;
    [[nodiscard]] SharedStagePool::Stats poolStats() const;
    /// In-flight synthesis dedupe waits observed by the shared gate.
    [[nodiscard]] std::size_t synthDedupeWaits() const;
    [[nodiscard]] const core::ArtifactStore& store() const { return *store_; }

    /// Objects the startup scrub quarantined (0 when scrubOnOpen off).
    [[nodiscard]] std::size_t scrubQuarantined() const { return scrubQuarantined_; }

private:
    enum class BreakerState { Closed, Open, HalfOpen };
    struct Breaker {
        BreakerState state = BreakerState::Closed;
        unsigned consecutiveFaults = 0;
        unsigned rejectsSinceOpen = 0;
        bool probeInFlight = false;
    };
    struct TenantState {
        TenantConfig config;
        std::size_t active = 0;  ///< queued + running flows
        Breaker breaker;
    };

    void runnerLoop();
    RequestOutcome runFlow(const FlowRequest& request);
    void finishCell(const std::shared_ptr<FlowHandle::Cell>& cell,
                    RequestOutcome outcome);
    /// Resolves `cell` as Rejected(reason) (caller holds mutex_).
    void rejectCell(const std::shared_ptr<FlowHandle::Cell>& cell,
                    RejectReason reason);
    [[nodiscard]] std::string requestPath(const std::string& id) const;
    [[nodiscard]] std::string donePath(const std::string& id) const;

    ServiceConfig config_;
    const hls::KernelLibrary& kernels_;
    std::shared_ptr<core::ArtifactStore> store_;
    std::shared_ptr<core::HlsCache> cache_;
    std::shared_ptr<core::SynthGate> gate_;
    std::unique_ptr<SharedStagePool> pool_;
    std::size_t scrubQuarantined_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::string, TenantState> tenants_;
    std::deque<std::shared_ptr<FlowHandle::Cell>> queue_;
    std::size_t running_ = 0;
    std::uint64_t nextSequence_ = 0;
    bool shutdown_ = false;
    ServiceStats stats_;
    std::vector<std::thread> runners_;
};

} // namespace socgen::svc
