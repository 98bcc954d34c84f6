#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt) {
    Rng rng(seed ^ (salt * 0xd1b54a32d192ed03ULL));
    return rng.next();
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
    return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> endToEndMetrics(const std::vector<double>& opMs, double windowSeconds,
                                    double setupSeconds, double simCyclesPerOp,
                                    double simMcyclesPerSecond) {
    return {
        {"op_ms_p50", percentile(opMs, 0.50), "ms"},
        {"op_ms_p90", percentile(opMs, 0.90), "ms"},
        {"ops_per_s",
         windowSeconds > 0 ? static_cast<double>(opMs.size()) / windowSeconds : 0.0, "1/s"},
        {"setup_s", setupSeconds, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_cycles", simCyclesPerOp, "cycles"},
        {"sim_mcycles_per_s", simMcyclesPerSecond, "Mcycles/s"},
    };
}

double overheadPct(const std::vector<double>& untracedMs, const std::vector<double>& tracedMs) {
    const double base = median(untracedMs);
    return base > 0 ? (median(tracedMs) - base) / base * 100.0 : 0.0;
}

} // namespace perfbench
