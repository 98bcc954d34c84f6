#pragma once

// Shared pieces of the end-to-end benchmark: seeded randomness, timing,
// the span recorder behind the traced runs, and the result each workload
// hands back to main().

#include "socgen/core/event_bus.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

[[nodiscard]] inline double msBetween(TimePoint a, TimePoint b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double usBetween(TimePoint a, TimePoint b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/// splitmix64 stream. Every input the benchmark generates comes from one
/// of these, seeded from the run's --seed, so a seed fixes the inputs.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /// Uniform in [0, n); n > 0.
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    template <typename T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i) {
            std::swap(items[i - 1], items[below(i)]);
        }
    }

private:
    std::uint64_t state_;
};

/// Derives an independent sub-seed (one per purpose / per item).
[[nodiscard]] std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt);

/// Nearest-rank percentile (p in [0,1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peakRssMb();

/// One named metric as printed in the result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Attempted/failed accounting: an exception, a wrong output, or a
/// service rejection all count as failed. The first reason is kept.
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string firstFailure;

    void fail(const std::string& why) {
        if (failed == 0) {
            firstFailure = why;
        }
        ++failed;
    }
};

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;        ///< scratch space (service roots)
    std::string tracePath;      ///< Chrome/Perfetto JSON written by traced runs
    std::size_t maxOps = 0;     ///< stop after this many ops per phase (0: time only)
};

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 21;

/// What one workload run hands back. `endToEnd` is filled by untraced
/// runs, `layers` (name -> value, unit from main's table) by traced runs.
struct RunResult {
    Tally tally;
    std::vector<Metric> endToEnd;
    std::map<std::string, double> layers;
    std::vector<std::string> notes;  ///< human-readable lines
    /// Summed simulated cycles of the untraced ops and, in a traced run,
    /// of the traced ops (exact; compared by the self-tests).
    std::uint64_t simCycles = 0;
    std::uint64_t simCyclesTraced = 0;
};

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> endToEndMetrics(const std::vector<double>& opMs,
                                                  double windowSeconds, double setupSeconds,
                                                  double simCyclesPerOp,
                                                  double simMcyclesPerSecond);

/// Traced vs untraced median op time, in percent.
[[nodiscard]] double overheadPct(const std::vector<double>& untracedMs,
                                 const std::vector<double>& tracedMs);

/// -- Span recorder -----------------------------------------------------------
///
/// Spans live in memory and are written once, as Chrome/Perfetto JSON,
/// when the run ends. Each records a name, start, end, parent and the op
/// it belongs to; a span's self time is its duration minus the part of
/// it that its children cover.
class Tracer {
public:
    using SpanId = std::int64_t;
    static constexpr SpanId kNone = -1;

    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

    SpanId open(std::string name, std::uint64_t op, SpanId parent, TimePoint begin);
    void close(SpanId id, TimePoint end);
    SpanId record(std::string name, std::uint64_t op, SpanId parent, TimePoint begin,
                  TimePoint end);

    /// Summed self time (µs) per span name over all closed spans.
    [[nodiscard]] std::map<std::string, double> selfTimesUs() const;
    /// Summed duration (µs) per span name over all closed spans.
    [[nodiscard]] std::map<std::string, double> totalTimesUs() const;

    void writeChromeJson(const std::string& path) const;

private:
    struct Span {
        std::string name;
        std::uint64_t op = 0;
        SpanId parent = kNone;
        double beginUs = 0.0;
        double endUs = -1.0;  ///< < 0 while open
        std::uint32_t tid = 0;
    };

    [[nodiscard]] double sinceEpochUs(TimePoint t) const { return usBetween(epoch_, t); }
    [[nodiscard]] std::uint32_t threadIndex();

    bool enabled_;
    TimePoint epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, std::uint32_t> threads_;
};

/// The benchmark's own flow-event subscriber (passed through
/// FlowOptions::subscribers). It timestamps StageBegin -> StageCommit
/// into `core.stage.<kind>` spans under the current scope, counts HLS
/// reuse events, and sums the bus's per-stage host time. Thread-safe,
/// because the service delivers events from several flows at once.
class StageRecorder : public socgen::core::FlowEventSubscriber {
public:
    StageRecorder(Tracer& tracer, bool recordSpans)
        : tracer_(tracer), recordSpans_(recordSpans) {}

    /// Parent span and op for the spans of the next flow run.
    void setScope(std::uint64_t op, Tracer::SpanId parent);

    void onEvent(const socgen::core::FlowEvent& event) override;

    /// Stage kind of a stage name: "hls" for hls:<node>[/<proc>], else the name.
    [[nodiscard]] static std::string stageKind(const std::string& stage);

    [[nodiscard]] std::size_t reuseEvents() const;
    /// Summed FlowEvent::hostMs of committed stages, per stage kind.
    [[nodiscard]] std::map<std::string, double> stageHostMs() const;

private:
    Tracer& tracer_;
    bool recordSpans_;
    mutable std::mutex mutex_;
    std::uint64_t op_ = 0;
    Tracer::SpanId parent_ = Tracer::kNone;
    std::map<std::string, Tracer::SpanId> open_;
    std::size_t reuse_ = 0;
    std::map<std::string, double> hostMs_;
};

/// Adds per-op means of span self times to `layers`: each span name maps
/// onto its per-layer metric ("core.parse" -> "core.parse.us", the op
/// root's self time -> "trace.other.us").
void addSpanLayers(const Tracer& tracer, std::size_t ops, std::map<std::string, double>& layers);

// -- workloads (one file each) --------------------------------------------------
RunResult runOtsuBoard(const Config& config);
RunResult runFlowCold(const Config& config);
RunResult runServiceMix(const Config& config);

/// Text rendering of the first `count` ops (and their inputs) a seed
/// generates, for the determinism self-tests.
[[nodiscard]] std::string boardOpSequence(std::uint64_t seed, std::size_t count);
[[nodiscard]] std::string flowColdOpSequence(std::uint64_t seed, std::size_t count);
[[nodiscard]] std::string serviceOpSequence(const Config& config, std::size_t count);

/// Determinism self-tests of the benchmark's own input generation and of
/// the simulated counters; returns the number of failed checks.
int runSelfTest(const Config& config);

/// Re-takes the Otsu Arch4 128x128 host-time baselines (cold flow, warm
/// flow, board run) and prints them.
int runBaseline(const Config& config);

} // namespace perfbench
