#include "socgen/svc/flow_service.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/parser.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>

namespace socgen::svc {

const char* toString(RequestState state) {
    switch (state) {
    case RequestState::Queued: return "queued";
    case RequestState::Running: return "running";
    case RequestState::Completed: return "completed";
    case RequestState::Failed: return "failed";
    case RequestState::Crashed: return "crashed";
    case RequestState::Rejected: return "rejected";
    }
    return "?";
}

const char* toString(RejectReason reason) {
    switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::Overloaded: return "overloaded";
    case RejectReason::TenantQueueFull: return "tenant-queue-full";
    case RejectReason::CircuitOpen: return "circuit-open";
    case RejectReason::Shed: return "shed";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// FlowHandle

struct FlowHandle::Cell {
    FlowRequest request;
    std::string id;        ///< ledger identity: <tenant>__<project>
    int priority = 0;      ///< tenant priority at admission (shedding rank)
    std::uint64_t sequence = 0;  ///< FIFO order within a priority class
    std::chrono::steady_clock::time_point submitTime;

    std::mutex mutex;
    std::condition_variable cv;
    RequestOutcome outcome;
    bool terminal = false;
};

RequestOutcome FlowHandle::wait() const {
    std::unique_lock<std::mutex> lock(cell_->mutex);
    cell_->cv.wait(lock, [this] { return cell_->terminal; });
    return cell_->outcome;
}

bool FlowHandle::isTerminal() const {
    const std::lock_guard<std::mutex> lock(cell_->mutex);
    return cell_->terminal;
}

const std::string& FlowHandle::tenant() const { return cell_->request.tenant; }
const std::string& FlowHandle::project() const { return cell_->request.project; }

// ---------------------------------------------------------------------------
// Request ledger
//
// One file per admitted request, written atomically *before* the request
// becomes runnable, plus a done marker written on structured completion,
// failure or shed. A crash between the two leaves a pending entry —
// exactly the set recoverPending() re-submits. The body carries the
// request's canonical DSL rendering, so recovery re-parses the graph
// (parseDsl(renderDsl(g)) == g) instead of trusting in-memory state that
// died with the process. Fault plans and injected failures are
// deliberately NOT persisted: they model events of the dead process, and
// a recovery run must run clean.

namespace {

constexpr const char* kLedgerMagic = "SOCGENREQ1";

std::string renderLedger(const FlowRequest& request) {
    std::string out;
    out += kLedgerMagic;
    out += "\ntenant ";
    out += request.tenant;
    out += format("\ndeadline %.6f", request.stageDeadlineMs);
    out += format("\nretrycap %.6f", request.maxRetryWallClockMs);
    out += "\ndsl\n";
    out += request.graph.renderDsl(request.project);
    return out;
}

/// Parses a ledger file body back into a request. Throws socgen::Error
/// on malformed input (a foreign or truncated file — never one written
/// by renderLedger, which lands atomically).
FlowRequest parseLedger(const std::string& body, const std::string& path) {
    const auto fail = [&path](const std::string& why) -> FlowRequest {
        throw Error(format("request ledger %s: %s", path.c_str(), why.c_str()));
    };
    std::size_t pos = 0;
    const auto nextLine = [&]() -> std::string {
        const std::size_t end = body.find('\n', pos);
        if (end == std::string::npos) {
            return fail("truncated header").tenant;  // unreachable (throws)
        }
        std::string line = body.substr(pos, end - pos);
        pos = end + 1;
        return line;
    };
    FlowRequest request;
    if (nextLine() != kLedgerMagic) {
        fail("bad magic");
    }
    const std::string tenantLine = nextLine();
    if (tenantLine.rfind("tenant ", 0) != 0) {
        fail("missing tenant line");
    }
    request.tenant = tenantLine.substr(7);
    const std::string deadlineLine = nextLine();
    if (deadlineLine.rfind("deadline ", 0) != 0) {
        fail("missing deadline line");
    }
    request.stageDeadlineMs = std::strtod(deadlineLine.c_str() + 9, nullptr);
    const std::string retryLine = nextLine();
    if (retryLine.rfind("retrycap ", 0) != 0) {
        fail("missing retrycap line");
    }
    request.maxRetryWallClockMs = std::strtod(retryLine.c_str() + 9, nullptr);
    if (nextLine() != "dsl") {
        fail("missing dsl marker");
    }
    const core::ParsedDsl parsed = core::parseDsl(std::string_view(body).substr(pos));
    request.project = parsed.projectName;
    request.graph = parsed.graph;
    return request;
}

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

// ---------------------------------------------------------------------------
// FlowService

FlowService::FlowService(ServiceConfig config, const hls::KernelLibrary& kernels)
    : config_(std::move(config)), kernels_(kernels) {
    if (config_.workers != 0) {
        throw Error(format("service: workers = %u, but out-of-process stages are not "
                           "supported; every stage runs in-process (set workers = 0)",
                           config_.workers));
    }
    store_ = std::make_shared<core::ArtifactStore>(config_.rootDir + "/store");
    if (config_.scrubOnOpen) {
        // Self-healing pass: verify every object in every shard before
        // the first tenant reads one; corrupt objects move to
        // quarantine/ and are transparently re-synthesized on demand.
        const core::ArtifactStore::ScrubReport report = store_->scrub();
        scrubQuarantined_ = report.quarantined.size();
        if (scrubQuarantined_ > 0) {
            Logger::global().warn(format("service: startup scrub quarantined %zu of %zu "
                                         "stored objects",
                                         scrubQuarantined_, report.scanned));
        }
    }
    cache_ = std::make_shared<core::HlsCache>();
    gate_ = std::make_shared<core::SynthGate>();
    pool_ = std::make_unique<SharedStagePool>(config_.stageWorkers);
    const unsigned runners = config_.flowRunners < 1 ? 1 : config_.flowRunners;
    runners_.reserve(runners);
    for (unsigned i = 0; i < runners; ++i) {
        runners_.emplace_back([this] { runnerLoop(); });
    }
}

FlowService::~FlowService() {
    // Admitted work is never dropped: finish the queue, then stop.
    drain();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& runner : runners_) {
        runner.join();
    }
    pool_.reset();  // joins the stage workers (queues are empty by now)
}

std::string FlowService::requestPath(const std::string& id) const {
    return config_.rootDir + "/requests/" + id + ".req";
}

std::string FlowService::donePath(const std::string& id) const {
    return config_.rootDir + "/requests/" + id + ".done";
}

void FlowService::configureTenant(const std::string& name, TenantConfig config) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        tenants_[name].config = config;
    }
    pool_->configureTenant(name, config.weight, config.maxInFlightStages);
}

void FlowService::rejectCell(const std::shared_ptr<FlowHandle::Cell>& cell,
                             RejectReason reason) {
    RequestOutcome outcome;
    outcome.state = RequestState::Rejected;
    outcome.rejectReason = reason;
    outcome.error = format("request %s rejected: %s", cell->id.c_str(),
                           toString(reason));
    finishCell(cell, std::move(outcome));
}

void FlowService::finishCell(const std::shared_ptr<FlowHandle::Cell>& cell,
                             RequestOutcome outcome) {
    {
        const std::lock_guard<std::mutex> lock(cell->mutex);
        cell->outcome = std::move(outcome);
        cell->terminal = true;
    }
    cell->cv.notify_all();
}

FlowHandle FlowService::submit(FlowRequest request) {
    FlowHandle handle;
    auto cell = std::make_shared<FlowHandle::Cell>();
    cell->request = std::move(request);
    cell->id = cell->request.tenant + "__" + cell->request.project;
    cell->submitTime = std::chrono::steady_clock::now();
    handle.cell_ = cell;

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submitted;
        if (shutdown_) {
            ++stats_.rejectedOverloaded;
            rejectCell(cell, RejectReason::Overloaded);
            return handle;
        }
        TenantState& tenant = tenants_[cell->request.tenant];

        // 1. Circuit breaker: a quarantined tenant is rejected outright;
        //    enough rejections earn one half-open probe slot.
        Breaker& breaker = tenant.breaker;
        if (breaker.state == BreakerState::Open) {
            ++breaker.rejectsSinceOpen;
            if (breaker.rejectsSinceOpen >= config_.breakerCooldownRejects) {
                breaker.state = BreakerState::HalfOpen;
                breaker.probeInFlight = false;
            } else {
                ++stats_.rejectedBreaker;
                rejectCell(cell, RejectReason::CircuitOpen);
                return handle;
            }
        }
        if (breaker.state == BreakerState::HalfOpen && breaker.probeInFlight) {
            ++stats_.rejectedBreaker;
            rejectCell(cell, RejectReason::CircuitOpen);
            return handle;
        }

        // 2. Tenant quota: bounded queue per tenant (queued + running).
        if (tenant.active >= tenant.config.maxQueueDepth) {
            ++stats_.rejectedTenantFull;
            rejectCell(cell, RejectReason::TenantQueueFull);
            return handle;
        }

        // 3. Service-wide bound: shed the lowest-priority *queued* flow
        //    if it ranks strictly below the incomer, else reject the
        //    incomer. Either way the queue never grows past the bound.
        if (queue_.size() >= config_.maxQueuedFlows) {
            auto victim = queue_.end();
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                if (victim == queue_.end() || (*it)->priority < (*victim)->priority) {
                    victim = it;
                }
            }
            if (victim != queue_.end() && (*victim)->priority < tenant.config.priority) {
                const std::shared_ptr<FlowHandle::Cell> shedCell = *victim;
                queue_.erase(victim);
                --tenants_[shedCell->request.tenant].active;
                ++stats_.shed;
                // The shed flow was admitted (ledger entry exists): close
                // it so recovery does not resurrect a rejected request.
                writeFileAtomic(donePath(shedCell->id), "shed\n");
                rejectCell(shedCell, RejectReason::Shed);
            } else {
                ++stats_.rejectedOverloaded;
                rejectCell(cell, RejectReason::Overloaded);
                return handle;
            }
        }

        // Admit: durable ledger record first, then visible to runners.
        if (breaker.state == BreakerState::HalfOpen) {
            breaker.probeInFlight = true;
        }
        cell->priority = tenant.config.priority;
        cell->sequence = nextSequence_++;
        ++tenant.active;
        ++stats_.admitted;
        writeFileAtomic(requestPath(cell->id), renderLedger(cell->request));
        queue_.push_back(cell);
    }
    cv_.notify_one();
    return handle;
}

RequestOutcome FlowService::runFlow(const FlowRequest& request) {
    RequestOutcome out;
    core::FlowOptions opts = config_.flowDefaults;
    opts.outputDir = config_.rootDir + "/tenants/" + request.tenant;
    opts.sharedStore = store_;
    opts.synthGate = gate_;
    opts.stageScheduler = pool_->schedulerFor(request.tenant);
    opts.stagePolicy = config_.stagePolicy;
    if (request.stageDeadlineMs > 0.0) {
        opts.stagePolicy.deadlineMs = request.stageDeadlineMs;
    }
    if (request.maxRetryWallClockMs > 0.0) {
        opts.stagePolicy.maxRetryWallClockMs = request.maxRetryWallClockMs;
    }
    // Decorrelated backoff: each (tenant, project) retries on its own
    // jitter stream, so colliding tenants spread apart instead of
    // hammering the tools in lockstep.
    opts.stagePolicy.seed =
        splitmix64(opts.stagePolicy.seed ^
                   splitmix64(fnv1a64(request.tenant) ^ fnv1a64(request.project)));
    opts.flowFaults = request.faults;
    opts.transientHlsFailures = request.transientHlsFailures;
    try {
        core::Flow flow(opts, kernels_, cache_);
        core::FlowResult result = flow.run(request.project, request.graph);
        out.state = RequestState::Completed;
        out.diagnostics = std::move(result.diagnostics);
        if (opts.runSynthesis) {
            out.bitstreamDigest = digest128(result.bitstream.serialize()).hex();
        }
    } catch (const FlowCrashError& e) {
        // The simulated kill -9: no done marker, the ledger entry stays
        // pending for the next service instance to recover.
        out.state = RequestState::Crashed;
        out.error = e.what();
    } catch (const std::exception& e) {
        out.state = RequestState::Failed;
        out.error = e.what();
    }
    return out;
}

void FlowService::runnerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        if (queue_.empty()) {
            if (shutdown_) {
                return;
            }
            cv_.wait(lock);
            continue;
        }
        // Highest admission priority first; FIFO within a class (the
        // queue is in submission order, so the first maximum wins).
        auto pick = queue_.begin();
        for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
            if ((*it)->priority > (*pick)->priority) {
                pick = it;
            }
        }
        const std::shared_ptr<FlowHandle::Cell> cell = *pick;
        queue_.erase(pick);
        ++running_;
        lock.unlock();

        const auto start = std::chrono::steady_clock::now();
        RequestOutcome outcome = runFlow(cell->request);
        const auto end = std::chrono::steady_clock::now();
        outcome.waitMs =
            std::chrono::duration<double, std::milli>(start - cell->submitTime).count();
        outcome.runMs = std::chrono::duration<double, std::milli>(end - start).count();
        if (outcome.state != RequestState::Crashed) {
            // Structured terminal state: close the ledger entry. Crashes
            // skip this on purpose — that is what recovery keys off.
            writeFileAtomic(donePath(cell->id), std::string(toString(outcome.state)) + "\n");
        }
        const RequestState state = outcome.state;

        lock.lock();
        TenantState& tenant = tenants_[cell->request.tenant];
        --tenant.active;
        --running_;
        const bool fault =
            state == RequestState::Failed || state == RequestState::Crashed;
        Breaker& breaker = tenant.breaker;
        if (fault) {
            ++breaker.consecutiveFaults;
            if (breaker.state == BreakerState::HalfOpen ||
                breaker.consecutiveFaults >= config_.breakerFaultThreshold) {
                if (breaker.state != BreakerState::Open) {
                    ++stats_.breakerTrips;
                }
                breaker.state = BreakerState::Open;
                breaker.rejectsSinceOpen = 0;
                breaker.probeInFlight = false;
            }
            if (state == RequestState::Failed) {
                ++stats_.failed;
            } else {
                ++stats_.crashed;
            }
        } else {
            breaker.consecutiveFaults = 0;
            breaker.probeInFlight = false;
            breaker.state = BreakerState::Closed;
            ++stats_.completed;
        }
        // Resolve the handle only after the accounting above: a client
        // that wait()s and immediately resubmits must observe the
        // breaker/quota state this outcome implies. (mutex_ before the
        // cell mutex is the lock order used everywhere.)
        finishCell(cell, std::move(outcome));
        cv_.notify_all();
    }
}

std::vector<FlowHandle> FlowService::recoverPending() {
    namespace fs = std::filesystem;
    std::vector<fs::path> pending;
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(config_.rootDir + "/requests", ec)) {
        if (!entry.is_regular_file() || entry.path().extension() != ".req") {
            continue;
        }
        pending.push_back(entry.path());
    }
    std::sort(pending.begin(), pending.end());

    std::vector<FlowHandle> handles;
    for (const auto& path : pending) {
        const std::string id = path.stem().string();
        if (fileExists(donePath(id))) {
            continue;
        }
        FlowRequest request;
        try {
            request = parseLedger(readTextFile(path.string()), path.string());
        } catch (const Error& e) {
            // A foreign or damaged file must not wedge recovery of the
            // healthy entries; report it and move on.
            Logger::global().warn(format("service: skipping unreadable ledger "
                                         "entry: %s",
                                         e.what()));
            continue;
        }
        Logger::global().info(format("service: recovering pending flow %s", id.c_str()));
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.recovered;
        }
        handles.push_back(submit(std::move(request)));
    }
    return handles;
}

void FlowService::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

ServiceStats FlowService::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

SharedStagePool::Stats FlowService::poolStats() const { return pool_->stats(); }

std::size_t FlowService::synthDedupeWaits() const { return gate_->waits(); }

} // namespace socgen::svc
