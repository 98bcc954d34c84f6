// perfbench — the end-to-end benchmark of the DSL-to-filtered-image path.
//
//   perfbench --workload otsu-board|flow-cold|service-mix --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//             [--commit SHA]
//   perfbench --selftest [--seed N]     determinism self-tests
//   perfbench --baseline                Otsu Arch4 host-time baselines
//
// Prints a host block and a metric table, then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics (and write a Chrome/Perfetto trace). perfbench/run.py builds
// this binary from source and is the intended entry point.

#include "bench.hpp"

#include "socgen/common/log.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct LayerMetric {
    const char* name;
    const char* unit;
};

/// The per-layer metrics of BENCHMARK.json: every traced run prints all
/// of them, and a layer a workload does not exercise reads 0 there.
const std::vector<LayerMetric> kLayerMetrics = {
    {"core.parse.us", "us"},
    {"core.flow.self_us", "us"},
    {"core.stage.scala.us", "us"},
    {"core.stage.hls.us", "us"},
    {"core.stage.integrate.us", "us"},
    {"core.stage.synth.us", "us"},
    {"core.stage.devicetree.us", "us"},
    {"core.stage.drivers.us", "us"},
    {"core.stage.boot.us", "us"},
    {"core.hls.reuse_ratio", "ratio"},
    {"hls.verify.us", "us"},
    {"hls.unroll.us", "us"},
    {"hls.optimize.us", "us"},
    {"hls.schedule.us", "us"},
    {"hls.bind.us", "us"},
    {"hls.rtlgen.us", "us"},
    {"hls.compile.us", "us"},
    {"hls.price.us", "us"},
    {"rtl.emit_vhdl.us", "us"},
    {"rtl.emit_verilog.us", "us"},
    {"hls.engine_runs", "count"},
    {"hls.ir.stmts", "count"},
    {"hls.program.instrs", "count"},
    {"rtl.netlist.cells", "count"},
    {"rtl.netlist.nets", "count"},
    {"soc.board.build_us", "us"},
    {"soc.board.run_us", "us"},
    {"soc.board.ns_per_cycle", "ns/cycle"},
    {"ps.busy_cycles", "cycles"},
    {"ps.task_cycles", "cycles"},
    {"ps.driver_cycles", "cycles"},
    {"axi.beats", "count"},
    {"axi.push_stalls", "cycles"},
    {"axi.pop_stalls", "cycles"},
    {"axi.high_water_max", "count"},
    {"vm.cycles", "cycles"},
    {"vm.stall_cycles", "cycles"},
    {"vm.instrs", "count"},
    {"dma.words", "count"},
    {"trace.op.us", "us"},
    {"trace.other.us", "us"},
    {"trace.overhead_pct", "%"},
};

/// Layers only service-mix exercises (it alone writes project
/// directories); its traced runs print these too.
const std::vector<LayerMetric> kServiceLayerMetrics = {
    {"core.stage.artifacts.us", "us"},
    {"svc.queue_ms_p50", "ms"},
    {"svc.queue_ms_p90", "ms"},
    {"svc.run_ms_p50", "ms"},
    {"svc.run_ms_p90", "ms"},
    {"svc.reuse_ratio", "ratio"},
    {"svc.dedupe_waits", "count"},
    {"svc.rejected", "count"},
    {"svc.gen_lag_ms_p90", "ms"},
    {"core.store.objects", "count"},
    {"core.store.bytes", "B"},
};

std::string jsonEscape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string cpuModel() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string compilerVersion() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

bool optimizedBuild() {
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

std::string hostBlock(const Config& config, const std::string& commit) {
    return std::string("{\"nproc\":") + std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":\"" + jsonEscape(cpuModel()) + "\",\"compiler\":\"" +
           jsonEscape(compilerVersion()) + "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
           "\",\"optimized\":" + (optimizedBuild() ? "true" : "false") + ",\"commit\":\"" +
           jsonEscape(commit) + "\",\"workload\":\"" + jsonEscape(config.workload) +
           "\",\"seed\":" + std::to_string(config.seed) + ",\"seconds\":" +
           number(config.seconds) + ",\"trace\":" + (config.trace ? "1" : "0") + "}";
}

void usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload otsu-board|flow-cold|service-mix --seed N "
                 "--seconds S --trace 0|1\n"
                 "                 [--work-dir DIR] [--trace-out FILE] [--commit SHA]\n"
                 "       perfbench --selftest [--seed N] | --baseline\n");
}

} // namespace

int main(int argc, char** argv) {
    Config config;
    std::string commit = "unknown";
    bool selfTest = false;
    bool baseline = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            config.workload = value();
        } else if (arg == "--seed") {
            config.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            config.seconds = std::stod(value());
        } else if (arg == "--trace") {
            config.trace = value() != "0";
        } else if (arg == "--work-dir") {
            config.workDir = value();
        } else if (arg == "--trace-out") {
            config.tracePath = value();
        } else if (arg == "--commit") {
            commit = value();
        } else if (arg == "--selftest") {
            selfTest = true;
        } else if (arg == "--baseline") {
            baseline = true;
        } else {
            usage();
            return 2;
        }
    }
    if (config.workDir.empty()) {
        config.workDir = ".bench_build/perfbench/work";
    }
    if (config.tracePath.empty()) {
        config.tracePath = config.workDir + "/trace-" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".json";
    }
    // The benchmark fixes every knob itself; the environment must not.
    for (const char* var : {"SOCGEN_FLOW_JOBS", "SOCGEN_SVC_WORKERS", "SOCGEN_SIM_BACKEND",
                            "SOCGEN_SIM_THREADS"}) {
        ::unsetenv(var);
    }
    socgen::Logger::global().setLevel(socgen::LogLevel::Error);
    std::filesystem::create_directories(config.workDir);

    try {
        if (selfTest) {
            return runSelfTest(config) == 0 ? 0 : 1;
        }
        if (baseline) {
            return runBaseline(config);
        }
        RunResult result;
        if (config.workload == "otsu-board") {
            result = runOtsuBoard(config);
        } else if (config.workload == "flow-cold") {
            result = runFlowCold(config);
        } else if (config.workload == "service-mix") {
            result = runServiceMix(config);
        } else {
            usage();
            return 2;
        }

        std::vector<Metric> metrics = result.endToEnd;
        if (config.trace) {
            metrics.clear();
            std::vector<LayerMetric> table = kLayerMetrics;
            if (config.workload == "service-mix") {
                table.insert(table.end(), kServiceLayerMetrics.begin(),
                             kServiceLayerMetrics.end());
            }
            for (const LayerMetric& m : table) {
                const auto it = result.layers.find(m.name);
                metrics.push_back(Metric{m.name, it == result.layers.end() ? 0.0 : it->second,
                                         m.unit});
            }
        }
        Tally& tally = result.tally;
        for (Metric& m : metrics) {
            if (!std::isfinite(m.value)) {
                tally.fail("metric " + m.name + " is not finite");
                m.value = 0.0;
            }
        }

        std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n", config.workload.c_str(),
                    static_cast<unsigned long long>(config.seed),
                    number(config.seconds).c_str(), config.trace ? 1 : 0);
        std::printf("host: %s\n", hostBlock(config, commit).c_str());
        if (!optimizedBuild()) {
            std::printf("WARNING: this build is NOT optimized (build type %s); timings are "
                        "not comparable\n",
                        PERFBENCH_BUILD_TYPE);
        }
        for (const Metric& m : metrics) {
            std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
        const double failedRatio =
            tally.attempted > 0
                ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
                : 0.0;
        std::printf("  %-28s %16.6f ratio  (%zu of %zu ops)\n", "failed_ratio", failedRatio,
                    tally.failed, tally.attempted);
        if (tally.failed > 0) {
            std::printf("first failure: %s\n", tally.firstFailure.c_str());
        }
        for (const std::string& note : result.notes) {
            std::printf("%s\n", note.c_str());
        }

        const bool correct = tally.failed == 0 && tally.attempted > 0;
        std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(tally.attempted) +
                           ", \"failed\": " + std::to_string(tally.failed) +
                           ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
                    number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
