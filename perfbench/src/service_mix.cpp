// service-mix: open loop against an in-process svc::FlowService
// (workers=0, fresh root, 4 tenants). One generator thread submits on a
// seeded Poisson schedule at a fixed rate; one collector thread waits on
// the handles. Most requests name catalog projects (Otsu Arch1-4,
// quickstart, a MUL/GAUSS/EDGE pipeline) in Zipf proportions, so they
// are cache and store hits; a fixed share names a generated kernel no
// earlier request used, so it runs the HLS engine and writes the store.

#include "bench.hpp"
#include "projects.hpp"

#include "socgen/apps/otsu_project.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/svc/flow_service.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <thread>

namespace perfbench {

using namespace socgen;

namespace {

constexpr int kTenants = 4;
/// Arrivals per second: about a third of the capacity measured on the
/// reference host, so queues stay short.
constexpr double kRate = 20.0;
/// Requests are drawn in shuffled blocks with fixed proportions: per
/// block of kBlock, kMissesPerBlock misses and Zipf(1) counts over the
/// catalog for the rest, so every seed offers the same mix.
constexpr std::size_t kBlock = 40;
constexpr std::size_t kMissesPerBlock = 2;
constexpr int kMiss = -1;

struct Request {
    double dueSeconds = 0.0;
    int tenant = 0;
    int item = kMiss;      ///< catalog index, or kMiss
    std::size_t miss = 0;  ///< index into the generated pool (kMiss only)
};

/// Block template: kMissesPerBlock misses, the rest split over the
/// catalog by Zipf weights 1/rank (largest-remainder rounding).
std::vector<int> blockTemplate(std::size_t catalogSize) {
    const std::size_t hits = kBlock - kMissesPerBlock;
    double total = 0.0;
    for (std::size_t r = 1; r <= catalogSize; ++r) {
        total += 1.0 / static_cast<double>(r);
    }
    std::vector<std::size_t> counts(catalogSize);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::size_t assigned = 0;
    for (std::size_t r = 0; r < catalogSize; ++r) {
        const double share = static_cast<double>(hits) / static_cast<double>(r + 1) / total;
        counts[r] = static_cast<std::size_t>(share);
        assigned += counts[r];
        remainders.emplace_back(share - static_cast<double>(counts[r]), r);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (std::size_t k = 0; assigned < hits; ++k, ++assigned) {
        ++counts[remainders[k].second];
    }
    std::vector<int> block(kMissesPerBlock, kMiss);
    for (std::size_t r = 0; r < catalogSize; ++r) {
        block.insert(block.end(), counts[r], static_cast<int>(r));
    }
    return block;
}

/// The seeded schedule: a Poisson process of kRate conditioned on its
/// count (kRate x seconds arrivals at sorted uniform times), so every
/// seed offers the same load and differs only in when and what.
std::vector<Request> makeSchedule(const Config& config, double seconds,
                                  std::size_t catalogSize) {
    Rng rng(subSeed(config.seed, 21));
    std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(kRate * seconds)));
    if (config.maxOps > 0) {
        n = std::min(n, config.maxOps);
    }
    std::vector<double> due(n);
    for (double& t : due) {
        t = rng.uniform() * seconds;
    }
    std::sort(due.begin(), due.end());
    const std::vector<int> pattern = blockTemplate(catalogSize);
    std::vector<int> block;
    std::vector<Request> schedule;
    std::size_t misses = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (block.empty()) {
            block = pattern;
            rng.shuffle(block);
        }
        Request r;
        r.dueSeconds = due[i];
        r.item = block.back();
        block.pop_back();
        r.tenant = static_cast<int>(rng.below(kTenants));
        if (r.item == kMiss) {
            r.miss = misses++;
        }
        schedule.push_back(r);
    }
    return schedule;
}

std::string tenantName(int t) { return "tenant" + std::to_string(t); }

struct ServiceSetup {
    ServiceSetup() = default;
    ServiceSetup(const ServiceSetup&) = delete;
    ServiceSetup& operator=(const ServiceSetup&) = delete;

    hls::KernelLibrary kernels;
    std::vector<Project> catalog = serviceCatalog();
    std::vector<core::TaskGraph> graphs;  ///< parsed catalog DSL
    std::vector<Request> schedule;
    std::map<std::string, GeneratedSpec> generated;  ///< by kernel name
    std::vector<std::string> missNames;              ///< project name per miss
    std::vector<core::TaskGraph> missGraphs;
    core::FlowOptions flowDefaults;
    std::string root;
    std::unique_ptr<svc::FlowService> service;  ///< last: destroyed first

    ~ServiceSetup() {
        service.reset();
        std::error_code ec;
        std::filesystem::remove_all(root, ec);
    }

    [[nodiscard]] const std::string& projectOf(const Request& r) const {
        return r.item == kMiss ? missNames[r.miss] : catalog[r.item].name;
    }
    /// Every request builds under its own project name, as a CI service
    /// builds each submission into a fresh output directory.
    [[nodiscard]] std::string requestName(std::size_t index) const {
        return projectOf(schedule[index]) + "_r" + std::to_string(index);
    }
    [[nodiscard]] const core::TaskGraph& graphOf(const Request& r) const {
        return r.item == kMiss ? missGraphs[r.miss] : graphs[r.item];
    }
};

/// Inputs (schedule, catalog graphs, one generated kernel per miss), a
/// service on a fresh root, and the catalog warmed through it once.
std::unique_ptr<ServiceSetup> setUp(const Config& config, double seconds,
                                    const std::string& root,
                                    const std::shared_ptr<StageRecorder>& recorder) {
    auto s = std::make_unique<ServiceSetup>();
    s->kernels = makeProjectLibrary();
    for (const Project& p : s->catalog) {
        s->graphs.push_back(core::parseDsl(p.dsl).graph);
    }
    s->schedule = makeSchedule(config, seconds, s->catalog.size());
    for (const Request& r : s->schedule) {
        if (r.item != kMiss) {
            continue;
        }
        const std::string kernel = "GEN" + std::to_string(r.miss);
        const std::string project = "gen" + std::to_string(r.miss);
        GeneratedSpec spec = makeGeneratedSpec(kernel, subSeed(config.seed, 5000 + r.miss));
        s->kernels.add(makeGeneratedKernel(spec));
        s->generated.emplace(kernel, std::move(spec));
        s->missNames.push_back(project);
        s->missGraphs.push_back(
            core::parseDsl(streamNodeDsl(project, kernel, "in", "out")).graph);
    }
    s->flowDefaults.kernelDirectives = apps::otsuKernelDirectives();

    s->root = root;
    std::filesystem::remove_all(root);
    svc::ServiceConfig sc;
    sc.rootDir = root;
    sc.stageWorkers = 2;
    sc.flowRunners = 2;
    sc.maxQueuedFlows = 256;
    sc.workers = 0;
    sc.flowDefaults = s->flowDefaults;
    if (recorder) {
        sc.flowDefaults.subscribers.push_back(recorder);
    }
    s->service = std::make_unique<svc::FlowService>(sc, s->kernels);
    for (int t = 0; t < kTenants; ++t) {
        svc::TenantConfig tenant;
        tenant.maxQueueDepth = 256;
        s->service->configureTenant(tenantName(t), tenant);
    }
    std::vector<svc::FlowHandle> warm;
    for (std::size_t i = 0; i < s->catalog.size(); ++i) {
        warm.push_back(s->service->submit(
            svc::FlowRequest{tenantName(0), s->catalog[i].name, s->graphs[i], {}, {}, 0, 0}));
    }
    for (const svc::FlowHandle& h : warm) {
        const svc::RequestOutcome out = h.wait();
        if (out.state != svc::RequestState::Completed) {
            throw Error("service-mix warm-up of " + h.project() + " failed: " + out.error);
        }
    }
    return s;
}

struct Done {
    std::size_t index = 0;
    TimePoint due;
    TimePoint submitted;
    svc::RequestOutcome outcome;
};

struct Phase {
    std::vector<Done> done;
    TimePoint start;
};

/// Drives the schedule: the generator submits each request when due, the
/// collector waits on the handles in submission order.
Phase runPhase(ServiceSetup& s, Tracer& tracer) {
    struct Sent {
        std::size_t index = 0;
        TimePoint due;
        TimePoint submitted;
        svc::FlowHandle handle;
    };
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Sent> sent;
    bool finished = false;
    std::exception_ptr collectorError;

    Phase phase;
    phase.start = Clock::now() + std::chrono::milliseconds(5);
    std::thread collector([&] {
        try {
            while (true) {
                Sent item;
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    cv.wait(lock, [&] { return finished || !sent.empty(); });
                    if (sent.empty()) {
                        return;
                    }
                    item = std::move(sent.front());
                    sent.pop_front();
                }
                const TimePoint w0 = Clock::now();
                svc::RequestOutcome outcome = item.handle.wait();
                tracer.record("svc.wait", item.index, Tracer::kNone, w0, Clock::now());
                phase.done.push_back(
                    Done{item.index, item.due, item.submitted, std::move(outcome)});
            }
        } catch (...) {
            collectorError = std::current_exception();
        }
    });
    try {
        for (std::size_t i = 0; i < s.schedule.size(); ++i) {
            const Request& r = s.schedule[i];
            svc::FlowRequest request{tenantName(r.tenant), s.requestName(i), s.graphOf(r), {},
                                     {}, 0, 0};
            const TimePoint due =
                phase.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(r.dueSeconds));
            std::this_thread::sleep_until(due);
            const TimePoint submitted = Clock::now();
            svc::FlowHandle handle = s.service->submit(std::move(request));
            tracer.record("svc.submit", i, Tracer::kNone, submitted, Clock::now());
            {
                const std::lock_guard<std::mutex> lock(mutex);
                sent.push_back(Sent{i, due, submitted, std::move(handle)});
            }
            cv.notify_one();
        }
    } catch (...) {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            finished = true;
        }
        cv.notify_one();
        collector.join();
        throw;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex);
        finished = true;
    }
    cv.notify_one();
    collector.join();
    if (collectorError) {
        std::rethrow_exception(collectorError);
    }
    s.service->drain();
    return phase;
}

std::uintmax_t directoryBytes(const std::string& dir) {
    std::uintmax_t bytes = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
        if (it->is_regular_file(ec)) {
            bytes += it->file_size(ec);
        }
    }
    return bytes;
}

/// Per-phase tallies derived from the outcomes.
struct Summary {
    std::vector<double> opMs, queueMs, runMs, lagMs;
    std::size_t hlsHits = 0;
    std::size_t engineRuns = 0;
    double windowSeconds = 0.0;
    std::vector<std::pair<std::size_t, std::string>> completed;  ///< (request, digest)
};

Summary summarize(const ServiceSetup& s, const Phase& phase, Tracer& tracer, Tally& tally) {
    Summary sum;
    TimePoint last = phase.start;
    for (const Done& d : phase.done) {
        ++tally.attempted;
        const svc::RequestOutcome& o = d.outcome;
        const double lag = msBetween(d.due, d.submitted);
        const TimePoint started =
            d.submitted + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(o.waitMs));
        const TimePoint terminal =
            started + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(o.runMs));
        last = std::max(last, terminal);
        sum.lagMs.push_back(lag);
        if (o.state != svc::RequestState::Completed) {
            tally.fail("service-mix request " + s.requestName(d.index) + ": " +
                       svc::toString(o.state) +
                       (o.state == svc::RequestState::Rejected
                            ? std::string(" ") + svc::toString(o.rejectReason)
                            : ": " + o.error));
            continue;
        }
        const Tracer::SpanId op = tracer.record("op", d.index, Tracer::kNone, d.due, terminal);
        tracer.record("svc.lag", d.index, op, d.due, d.submitted);
        tracer.record("svc.queue", d.index, op, d.submitted, started);
        tracer.record("svc.run", d.index, op, started, terminal);
        sum.opMs.push_back(lag + o.waitMs + o.runMs);
        sum.queueMs.push_back(o.waitMs);
        sum.runMs.push_back(o.runMs);
        sum.hlsHits += o.diagnostics.processCacheHits() + o.diagnostics.processStoreHits();
        sum.engineRuns += o.diagnostics.processEngineRuns();
        sum.completed.emplace_back(d.index, o.bitstreamDigest);
    }
    sum.windowSeconds = msBetween(phase.start, last) / 1000.0;
    return sum;
}

/// One program set with the seed of its oracle inputs.
struct ProgramSet {
    const std::map<std::string, hls::Program>* programs = nullptr;
    std::uint64_t inputSeed = 0;
};

/// Kernel-VM throughput in M simulated cycles per host second: passes
/// over every set (at least three, until `minSeconds` of VM time) and
/// the median pass, so a short burst of host noise cannot move it.
double vmThroughput(const std::vector<ProgramSet>& sets,
                    const std::map<std::string, GeneratedSpec>& generated, double minSeconds) {
    std::vector<double> passes;
    double total = 0.0;
    while (!sets.empty() && (passes.size() < 3 || total < minSeconds)) {
        std::uint64_t cycles = 0;
        double seconds = 0.0;
        for (const ProgramSet& set : sets) {
            const OracleResult r = checkPrograms(*set.programs, set.inputSeed, generated);
            cycles += r.cycles;
            seconds += r.hostSeconds;
        }
        if (seconds <= 0.0) {
            break;
        }
        passes.push_back(static_cast<double>(cycles) / seconds / 1e6);
        total += seconds;
    }
    return median(passes);
}

struct CheckResult {
    std::uint64_t cycles = 0;  ///< oracle cycles summed over completed requests
    double mcyclesPerSecond = 0.0;
};

/// Reference checks, outside the timed region: every completed request's
/// bitstream digest against an in-process Flow::run of the same graph
/// under the same name, and each distinct graph's programs on the VM
/// oracle.
CheckResult checkOutcomes(const Config& config, const ServiceSetup& s, const Summary& sum,
                          Tally& tally) {
    struct Graph {
        std::map<std::string, hls::Program> programs;
        OracleResult oracle;
        std::uint64_t seed = 0;
    };
    std::map<int, Graph> graphs;  ///< by catalog index, misses after the catalog
    auto cache = std::make_shared<core::HlsCache>();
    CheckResult out;
    for (const auto& [index, digest] : sum.completed) {
        const Request& r = s.schedule[index];
        const int key = r.item == kMiss ? static_cast<int>(s.catalog.size() + r.miss) : r.item;
        const std::string name = s.requestName(index);
        try {
            core::Flow flow(s.flowDefaults, s.kernels, cache);
            core::FlowResult reference = flow.run(name, s.graphOf(r));
            if (digest != digest128(reference.bitstream.serialize()).hex()) {
                tally.fail("service-mix " + name +
                           ": bitstream digest differs from an in-process Flow::run");
                continue;
            }
            auto [it, fresh] = graphs.try_emplace(key);
            Graph& g = it->second;
            if (fresh) {
                g.programs = std::move(reference.programs);
                g.seed = subSeed(config.seed, 3000 + static_cast<std::uint64_t>(key));
                g.oracle = checkPrograms(g.programs, g.seed, s.generated);
            }
            if (!g.oracle.mismatch.empty()) {
                tally.fail("service-mix " + name + ": " + g.oracle.mismatch);
                continue;
            }
            out.cycles += g.oracle.cycles;
        } catch (const std::exception& e) {
            tally.fail("service-mix reference for " + name + ": " + e.what());
        }
    }
    std::vector<ProgramSet> sets;
    for (const auto& [key, g] : graphs) {
        if (g.oracle.mismatch.empty()) {
            sets.push_back(ProgramSet{&g.programs, g.seed});
        }
    }
    out.mcyclesPerSecond = vmThroughput(sets, s.generated, 1.0);
    return out;
}

} // namespace

std::string serviceOpSequence(const Config& config, std::size_t count) {
    const std::vector<Project> catalog = serviceCatalog();
    const std::vector<Request> schedule = makeSchedule(config, config.seconds, catalog.size());
    std::string text;
    for (std::size_t i = 0; i < std::min(count, schedule.size()); ++i) {
        const Request& r = schedule[i];
        const std::string what =
            r.item == kMiss ? "gen" + std::to_string(r.miss) + " spec=" +
                                  std::to_string(subSeed(config.seed, 5000 + r.miss))
                            : catalog[r.item].name;
        text += std::to_string(static_cast<long long>(std::llround(r.dueSeconds * 1e6))) +
                "us " + tenantName(r.tenant) + " " + what + "\n";
    }
    return text;
}

RunResult runServiceMix(const Config& config) {
    RunResult result;
    const double phaseSeconds = config.trace ? config.seconds / 2 : config.seconds;
    std::vector<double> setups;
    std::unique_ptr<ServiceSetup> setup;
    for (int r = 0; r < kSetupRepeats; ++r) {
        setup.reset();
        const TimePoint t0 = Clock::now();
        setup = setUp(config, phaseSeconds, config.workDir + "/service-root", nullptr);
        setups.push_back(msBetween(t0, Clock::now()) / 1000.0);
    }

    Tracer off(false);
    const Phase plain = runPhase(*setup, off);
    const Summary plainSum = summarize(*setup, plain, off, result.tally);
    const CheckResult plainCheck = checkOutcomes(config, *setup, plainSum, result.tally);
    result.simCycles = plainCheck.cycles;
    if (!config.trace) {
        const double n = static_cast<double>(plainSum.opMs.size());
        result.endToEnd = endToEndMetrics(plainSum.opMs, plainSum.windowSeconds, median(setups),
                                          n > 0 ? result.simCycles / n : 0.0,
                                          plainCheck.mcyclesPerSecond);
        return result;
    }

    // Traced run: the same schedule again against a fresh service whose
    // flows carry the benchmark's stage subscriber.
    setup.reset();
    Tracer tracer(true);
    auto recorder = std::make_shared<StageRecorder>(tracer, false);
    std::unique_ptr<ServiceSetup> traced =
        setUp(config, phaseSeconds, config.workDir + "/service-root-traced", recorder);
    const Phase phase = runPhase(*traced, tracer);
    const Summary sum = summarize(*traced, phase, tracer, result.tally);
    result.simCyclesTraced = checkOutcomes(config, *traced, sum, result.tally).cycles;

    auto& L = result.layers;
    const double n = sum.opMs.empty() ? 1.0 : static_cast<double>(sum.opMs.size());
    addSpanLayers(tracer, sum.opMs.size(), L);
    for (const auto& [kind, ms] : recorder->stageHostMs()) {
        L["core.stage." + kind + ".us"] = ms * 1000.0 / n;
    }
    const double reuse = static_cast<double>(recorder->reuseEvents());
    L["core.hls.reuse_ratio"] =
        reuse + sum.engineRuns > 0 ? reuse / (reuse + sum.engineRuns) : 0.0;
    L["hls.engine_runs"] = sum.engineRuns / n;
    L["svc.queue_ms_p50"] = percentile(sum.queueMs, 0.50);
    L["svc.queue_ms_p90"] = percentile(sum.queueMs, 0.90);
    L["svc.run_ms_p50"] = percentile(sum.runMs, 0.50);
    L["svc.run_ms_p90"] = percentile(sum.runMs, 0.90);
    L["svc.gen_lag_ms_p90"] = percentile(sum.lagMs, 0.90);
    const double stages = static_cast<double>(sum.hlsHits + sum.engineRuns);
    L["svc.reuse_ratio"] = stages > 0 ? static_cast<double>(sum.hlsHits) / stages : 0.0;
    L["svc.dedupe_waits"] = static_cast<double>(traced->service->synthDedupeWaits());
    const svc::ServiceStats stats = traced->service->stats();
    L["svc.rejected"] = static_cast<double>(stats.shed + stats.rejectedOverloaded +
                                            stats.rejectedTenantFull + stats.rejectedBreaker);
    L["core.store.objects"] = static_cast<double>(traced->service->store().objectCount());
    L["core.store.bytes"] = static_cast<double>(directoryBytes(traced->root + "/store"));
    L["trace.overhead_pct"] = overheadPct(plainSum.opMs, sum.opMs);
    tracer.writeChromeJson(config.tracePath);
    result.notes.push_back("trace: " + config.tracePath);
    return result;
}

} // namespace perfbench
