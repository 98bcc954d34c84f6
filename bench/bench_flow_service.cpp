// Load generator for the multi-tenant flow service: hundreds of queued
// flows across many tenants with a cold/warm kernel mix, all sharing
// one stage pool, one artifact store and one HLS cache. Reports the
// four service metrics the robustness work targets:
//
//   - throughput          admitted flows completed per second
//   - p50 / p99 latency   submit → terminal, per flow
//   - dedupe hit rate     HLS stages served without an engine run
//                         (warm cache, store, or in-flight dedupe)
//   - shed count          flows evicted by priority admission control
//
// Three phases: (1) a mixed 6-tenant cold/warm soak, (2) the acceptance
// workload — two tenants submitting identical kernels, where the dedupe
// hit rate must exceed 50% — and (3) an overload storm against a
// deliberately tiny queue, where shedding (not memory growth or
// blocking) absorbs the excess. The run summary is also written to
// bench_artifacts/flow_service_load.txt.

#include "socgen/apps/kernels.hpp"
#include "socgen/socgen.hpp"
#include "socgen/svc/flow_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace socgen;

namespace {

std::string gOut;  // accumulated report (stdout + committed artifact)

void emit(const char* fmt, ...) {
    char line[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(line, sizeof line, fmt, args);
    va_end(args);
    std::fputs(line, stdout);
    gOut += line;
}

/// A small unique stream-through kernel per tenant — the "cold" work
/// nobody else's submissions can dedupe.
hls::Kernel uniqueKernel(const std::string& name, int stmts) {
    using namespace hls;
    KernelBuilder kb(name);
    const PortId in = kb.streamIn("in", 8);
    const PortId out = kb.streamOut("out", 8);
    const VarId i = kb.var("i", 32);
    const VarId acc = kb.var("acc", 32);
    kb.forLoop(i, kb.c(256));
    kb.assign(acc, kb.read(in));
    for (int s = 0; s < stmts; ++s) {
        kb.assign(acc, kb.add(kb.mul(kb.v(acc), kb.c(3 + s)), kb.c(7)));
    }
    kb.write(out, kb.v(acc));
    kb.endLoop();
    return kb.build();
}

/// The shared three-kernel pipeline every tenant also submits — the
/// "warm" work the service dedupes across tenants.
core::TaskGraph sharedGraph() {
    constexpr const char* dsl = R"(
object shared extends App {
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

core::TaskGraph soloGraph(const std::string& kernel) {
    const std::string dsl = R"(
object solo extends App {
  tg nodes;
    tg node ")" + kernel + R"(" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to (")" + kernel + R"(","in") end;
    tg link (")" + kernel + R"(","out") to 'soc end;
  tg end_edges;
}
)";
    return core::parseDsl(dsl).graph;
}

struct PhaseStats {
    double wallSeconds = 0.0;
    std::size_t completed = 0;
    std::size_t hlsStages = 0;
    std::size_t engineRuns = 0;
    std::vector<double> latenciesMs;

    [[nodiscard]] double throughput() const {
        return wallSeconds > 0 ? static_cast<double>(completed) / wallSeconds : 0.0;
    }
    [[nodiscard]] double dedupeRate() const {
        return hlsStages > 0 ? 1.0 - static_cast<double>(engineRuns) /
                                         static_cast<double>(hlsStages)
                             : 0.0;
    }
    [[nodiscard]] double percentile(double p) {
        if (latenciesMs.empty()) {
            return 0.0;
        }
        std::sort(latenciesMs.begin(), latenciesMs.end());
        const auto rank = static_cast<std::size_t>(
            p * static_cast<double>(latenciesMs.size() - 1) + 0.5);
        return latenciesMs[std::min(rank, latenciesMs.size() - 1)];
    }
};

PhaseStats drainAndCollect(svc::FlowService& service,
                           const std::vector<svc::FlowHandle>& handles,
                           std::chrono::steady_clock::time_point start) {
    service.drain();
    PhaseStats stats;
    stats.wallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    for (const svc::FlowHandle& handle : handles) {
        const svc::RequestOutcome outcome = handle.wait();
        if (outcome.state != svc::RequestState::Completed) {
            continue;
        }
        ++stats.completed;
        stats.latenciesMs.push_back(outcome.waitMs + outcome.runMs);
        stats.hlsStages += outcome.diagnostics.nodes.size();
        stats.engineRuns += outcome.diagnostics.engineRuns();
    }
    return stats;
}

void report(const char* title, PhaseStats& stats, const svc::ServiceStats& svcStats) {
    emit("%s\n", title);
    emit("  %-28s %10.1f flows/s\n", "throughput", stats.throughput());
    emit("  %-28s %10.2f ms\n", "latency p50", stats.percentile(0.50));
    emit("  %-28s %10.2f ms\n", "latency p99", stats.percentile(0.99));
    emit("  %-28s %9.1f%%  (%zu of %zu HLS stages reused)\n", "dedupe hit rate",
         100.0 * stats.dedupeRate(), stats.hlsStages - stats.engineRuns,
         stats.hlsStages);
    emit("  %-28s %10zu\n", "shed count", svcStats.shed);
    emit("  %-28s %10zu completed, %zu rejected, %zu failed\n\n", "outcomes",
         svcStats.completed, svcStats.shed + svcStats.rejectedOverloaded +
                                 svcStats.rejectedTenantFull + svcStats.rejectedBreaker,
         svcStats.failed);
}

std::string freshRoot(const std::string& name) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / ("socgen_bench_svc_" + name))
            .string();
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

int main() {
    Logger::global().setLevel(LogLevel::Error);

    hls::KernelLibrary kernels;
    kernels.add(apps::makeAddKernel());
    kernels.add(apps::makeMulKernel());
    kernels.add(apps::makeGaussKernel(64));
    kernels.add(apps::makeEdgeKernel(64));
    for (int t = 0; t < 6; ++t) {
        kernels.add(uniqueKernel("COLD" + std::to_string(t), 4 + t));
    }

    emit("Multi-tenant flow service load generator\n");
    emit("(shared stage pool, shared artifact store, WFQ across tenants)\n\n");

    // Phase 1: mixed soak — 6 tenants × 40 flows, ~1 cold submission in
    // 8, the rest the shared warm pipeline.
    {
        svc::ServiceConfig config;
        config.rootDir = freshRoot("soak");
        config.stageWorkers = 4;
        config.flowRunners = 4;
        config.maxQueuedFlows = 512;
        svc::FlowService service(config, kernels);
        for (int t = 0; t < 6; ++t) {
            svc::TenantConfig tenant;
            tenant.weight = 1 + static_cast<unsigned>(t % 3);
            tenant.maxQueueDepth = 512;  // the soak measures throughput, not quotas
            service.configureTenant("tenant" + std::to_string(t), tenant);
        }
        const auto start = std::chrono::steady_clock::now();
        std::vector<svc::FlowHandle> handles;
        for (int round = 0; round < 40; ++round) {
            for (int t = 0; t < 6; ++t) {
                svc::FlowRequest request;
                request.tenant = "tenant" + std::to_string(t);
                request.project =
                    "p" + std::to_string(t) + "_" + std::to_string(round);
                request.graph = (round % 8 == 7)
                                    ? soloGraph("COLD" + std::to_string(t))
                                    : sharedGraph();
                handles.push_back(service.submit(std::move(request)));
            }
        }
        PhaseStats stats = drainAndCollect(service, handles, start);
        report("phase 1: mixed soak (6 tenants x 40 flows, cold/warm mix)", stats,
               service.stats());
        std::filesystem::remove_all(config.rootDir);
    }

    // Phase 2: the acceptance workload — two tenants, identical kernels.
    // Every HLS stage beyond the first synthesis of each kernel must be
    // served warm (cache/store) or deduped in flight: > 50% hit rate.
    double acceptanceRate = 0.0;
    {
        svc::ServiceConfig config;
        config.rootDir = freshRoot("warm");
        config.stageWorkers = 4;
        config.flowRunners = 4;
        config.maxQueuedFlows = 256;
        svc::FlowService service(config, kernels);
        for (int t = 0; t < 2; ++t) {
            svc::TenantConfig tenant;
            tenant.maxQueueDepth = 256;
            service.configureTenant("tenant" + std::to_string(t), tenant);
        }
        const auto start = std::chrono::steady_clock::now();
        std::vector<svc::FlowHandle> handles;
        for (int round = 0; round < 30; ++round) {
            for (int t = 0; t < 2; ++t) {
                svc::FlowRequest request;
                request.tenant = "tenant" + std::to_string(t);
                request.project =
                    "w" + std::to_string(t) + "_" + std::to_string(round);
                request.graph = sharedGraph();
                handles.push_back(service.submit(std::move(request)));
            }
        }
        PhaseStats stats = drainAndCollect(service, handles, start);
        emit("  in-flight dedupe waits: %zu\n", service.synthDedupeWaits());
        report("phase 2: 2-tenant identical-kernel workload (warm dedupe)", stats,
               service.stats());
        acceptanceRate = stats.dedupeRate();
        std::filesystem::remove_all(config.rootDir);
    }

    // Phase 3: overload storm — 120 submissions against one runner and
    // an 8-deep queue, priorities 0..2. Admission control must shed and
    // reject (bounded memory), never block the submitters.
    {
        svc::ServiceConfig config;
        config.rootDir = freshRoot("storm");
        config.stageWorkers = 2;
        config.flowRunners = 1;
        config.maxQueuedFlows = 8;
        config.flowDefaults.toolLatencyMsPerToolSecond = 0.05;
        svc::FlowService service(config, kernels);
        for (int t = 0; t < 6; ++t) {
            svc::TenantConfig tenant;
            tenant.priority = t % 3;
            tenant.maxQueueDepth = 64;
            service.configureTenant("tenant" + std::to_string(t), tenant);
        }
        const auto start = std::chrono::steady_clock::now();
        std::vector<svc::FlowHandle> handles;
        for (int round = 0; round < 20; ++round) {
            for (int t = 0; t < 6; ++t) {
                svc::FlowRequest request;
                request.tenant = "tenant" + std::to_string(t);
                request.project =
                    "s" + std::to_string(t) + "_" + std::to_string(round);
                request.graph = sharedGraph();
                handles.push_back(service.submit(std::move(request)));
            }
        }
        PhaseStats stats = drainAndCollect(service, handles, start);
        report("phase 3: overload storm (120 flows, 1 runner, 8-deep queue)", stats,
               service.stats());
        std::filesystem::remove_all(config.rootDir);
    }

    std::filesystem::create_directories("bench_artifacts");
    writeFileAtomic("bench_artifacts/flow_service_load.txt", gOut);
    emit("wrote bench_artifacts/flow_service_load.txt\n");

    if (acceptanceRate <= 0.5) {
        std::fprintf(stderr,
                     "FAIL: warm dedupe hit rate %.1f%% <= 50%% acceptance bar\n",
                     100.0 * acceptanceRate);
        return 1;
    }
    return 0;
}
