#pragma once

#include "socgen/core/stage_graph.hpp"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace socgen::svc {

/// One worker pool shared by every concurrently running flow of the
/// service, scheduling stage tasks with weighted fair queueing across
/// tenants. Each tenant gets a core::StageScheduler view (schedulerFor)
/// that tags its submissions; dispatch picks the eligible tenant with
/// the smallest virtual time, so a tenant of weight 2 gets twice the
/// stage throughput of a weight-1 tenant under contention — and an idle
/// tenant's unused share is redistributed rather than wasted. A flow
/// submits one stage at a time, so a tenant's stages in flight belong
/// to different flows.
///
/// Per-tenant isolation knobs:
///  - weight: WFQ share under contention;
///  - maxInFlightStages: hard cap on a tenant's concurrently *running*
///    stages, so one tenant's many concurrent flows cannot occupy every
///    worker no matter its weight.
///
/// Stage queues are deliberately unbounded: the StageScheduler contract
/// forbids dropping tasks, and boundedness is enforced one level up, at
/// flow admission (FlowService) — a tenant can only queue stages for
/// flows it was admitted to run, so queue depth here is bounded by
/// (admitted flows) × (stages per flow) by construction.
///
/// Liveness: leadership in a SynthGate is only ever held by a *running*
/// task and released when that task finishes, so a task blocked waiting
/// on a gate always waits on a running (or already finished) task,
/// never on a queued one — no worker-starvation deadlock, even with one
/// worker.
class SharedStagePool {
public:
    explicit SharedStagePool(unsigned workers);
    ~SharedStagePool();

    SharedStagePool(const SharedStagePool&) = delete;
    SharedStagePool& operator=(const SharedStagePool&) = delete;

    /// Registers (or re-configures) a tenant. Unknown tenants that
    /// submit without configuration get weight 1 and an in-flight cap
    /// equal to the worker count.
    void configureTenant(const std::string& tenant, unsigned weight,
                         unsigned maxInFlightStages);

    /// A StageScheduler view that tags every submission with `tenant`.
    /// Valid for the pool's lifetime; flows must finish (execute()
    /// returned) before the pool is destroyed.
    [[nodiscard]] std::shared_ptr<core::StageScheduler>
    schedulerFor(const std::string& tenant);

    struct Stats {
        std::size_t tasksExecuted = 0;
        std::size_t maxQueueDepth = 0;  ///< high-water mark across tenants
    };
    [[nodiscard]] Stats stats() const;

private:
    struct Tenant {
        unsigned weight = 1;
        unsigned maxInFlight = 1;
        unsigned inFlight = 0;
        double virtualTime = 0.0;
        std::deque<std::function<void()>> queue;
    };

    void submit(const std::string& tenant, std::function<void()> task);
    void workerLoop();
    /// Name of the eligible tenant with the least virtual time, or ""
    /// (caller holds mutex_). Ties break lexicographically so dispatch
    /// is a deterministic function of the queue state.
    [[nodiscard]] std::string pickTenant() const;

    class TenantScheduler;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::string, Tenant> tenants_;
    double globalVirtualTime_ = 0.0;
    bool shutdown_ = false;
    std::size_t queuedTotal_ = 0;
    Stats stats_;
    std::vector<std::thread> workers_;
};

} // namespace socgen::svc
