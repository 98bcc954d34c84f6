#include "socgen/core/diagnostics.hpp"

#include "socgen/common/strings.hpp"

namespace socgen::core {
namespace {

const char* sourceOf(const FlowDiagnostics::HlsOutcome& o) {
    return o.cacheHit   ? "cache hit"
           : o.storeHit ? (o.resumedFromJournal ? "store hit (journaled)" : "store hit")
                        : "synthesized";
}

} // namespace

bool FlowDiagnostics::anyDegraded() const {
    for (const auto& n : nodes) {
        if (n.degraded) {
            return true;
        }
    }
    return false;
}

std::vector<std::string> FlowDiagnostics::degradedNodes() const {
    std::vector<std::string> names;
    for (const auto& n : nodes) {
        if (n.degraded) {
            names.push_back(n.node);
        }
    }
    return names;
}

std::size_t FlowDiagnostics::engineRuns() const {
    std::size_t count = 0;
    for (const auto& n : nodes) {
        if (!n.degraded && n.attempts > 0) {
            ++count;
        }
    }
    return count;
}

std::size_t FlowDiagnostics::cacheHits() const {
    std::size_t count = 0;
    for (const auto& n : nodes) {
        if (n.cacheHit) {
            ++count;
        }
    }
    return count;
}

std::size_t FlowDiagnostics::storeHits() const {
    std::size_t count = 0;
    for (const auto& n : nodes) {
        if (n.storeHit) {
            ++count;
        }
    }
    return count;
}

double FlowDiagnostics::stageToolSeconds(std::string_view prefix) const {
    double total = 0.0;
    for (const auto& s : stages) {
        if (s.stage.starts_with(prefix)) {
            total += s.toolSeconds;
        }
    }
    return total;
}

std::size_t FlowDiagnostics::processEngineRuns() const {
    std::size_t count = 0;
    for (const auto& n : nodes) {
        if (n.processes.empty()) {
            count += (!n.degraded && n.attempts > 0) ? 1 : 0;
            continue;
        }
        for (const auto& p : n.processes) {
            if (!p.degraded && p.attempts > 0) {
                ++count;
            }
        }
    }
    return count;
}

std::size_t FlowDiagnostics::processCacheHits() const {
    std::size_t count = 0;
    for (const auto& n : nodes) {
        if (n.processes.empty()) {
            count += n.cacheHit ? 1 : 0;
            continue;
        }
        for (const auto& p : n.processes) {
            if (p.cacheHit) {
                ++count;
            }
        }
    }
    return count;
}

std::size_t FlowDiagnostics::processStoreHits() const {
    std::size_t count = 0;
    for (const auto& n : nodes) {
        if (n.processes.empty()) {
            count += n.storeHit ? 1 : 0;
            continue;
        }
        for (const auto& p : n.processes) {
            if (p.storeHit) {
                ++count;
            }
        }
    }
    return count;
}

std::string FlowDiagnostics::render(bool withHostTimes) const {
    std::string out = "HLS diagnostics:";
    for (const auto& n : nodes) {
        if (n.degraded) {
            out += format("\n  %s: DEGRADED to software fallback after %u attempt(s) — %s",
                          n.node.c_str(), n.attempts, n.error.c_str());
        } else {
            out += format("\n  %s: ok (%.1f tool-s, %s, %u attempt(s))", n.node.c_str(),
                          n.toolSeconds, sourceOf(n), n.attempts);
        }
        for (const auto& p : n.processes) {
            if (p.degraded) {
                out += format("\n    %s/%s: DEGRADED after %u attempt(s) — %s",
                              n.node.c_str(), p.process.c_str(), p.attempts,
                              p.error.c_str());
                continue;
            }
            out += format("\n    %s/%s: ok (%.1f tool-s, %s, %u attempt(s))",
                          n.node.c_str(), p.process.c_str(), p.toolSeconds, sourceOf(p),
                          p.attempts);
        }
    }
    if (!stages.empty()) {
        out += "\nstage timeline:";
        out += format("\n  %-16s %8s %8s %10s %10s  %s", "stage", "attempts", "timeouts",
                      "tool-s", "host-ms", "source");
        for (const auto& s : stages) {
            const std::string hostMs =
                withHostTimes ? format("%10.3f", s.hostMs) : format("%10s", "-");
            out += format("\n  %-16s %8u %8u %10.1f %s  %s", s.stage.c_str(), s.attempts,
                          s.timeouts, s.toolSeconds, hostMs.c_str(), s.source.c_str());
        }
    }
    if (stageRetries > 0 || stageTimeouts > 0 || resumedStages > 0 ||
        digestMismatches > 0 || corruptArtifacts > 0) {
        out += format("\n  flow: %zu stage retr%s, %zu timeout(s), %zu resumed stage(s), "
                      "%zu digest mismatch(es), %zu corrupt artifact(s)",
                      stageRetries, stageRetries == 1 ? "y" : "ies", stageTimeouts,
                      resumedStages, digestMismatches, corruptArtifacts);
    }
    return out;
}

} // namespace socgen::core
