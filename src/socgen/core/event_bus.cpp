#include "socgen/core/event_bus.hpp"

#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"

namespace socgen::core {

const char* toString(FlowEventKind kind) {
    switch (kind) {
    case FlowEventKind::FlowBegin: return "flow-begin";
    case FlowEventKind::FlowEnd: return "flow-end";
    case FlowEventKind::StageBegin: return "stage-begin";
    case FlowEventKind::StageRetry: return "stage-retry";
    case FlowEventKind::StageTimeout: return "stage-timeout";
    case FlowEventKind::StageCommit: return "stage-commit";
    case FlowEventKind::StageDegraded: return "stage-degraded";
    case FlowEventKind::StageFailed: return "stage-failed";
    case FlowEventKind::CacheHit: return "cache-hit";
    case FlowEventKind::StoreHit: return "store-hit";
    case FlowEventKind::ArtifactRejected: return "artifact-rejected";
    case FlowEventKind::DigestMismatch: return "digest-mismatch";
    case FlowEventKind::ArtifactQuarantined: return "artifact-quarantined";
    }
    return "unknown";
}

std::string FlowEvent::render() const {
    std::string out = format("%s %s", toString(kind), stage.c_str());
    if (!detail.empty()) {
        out += ": " + detail;
    }
    if (attempt > 0) {
        out += format(" (attempt %u)", attempt);
    }
    return out;
}

FlowEventBus::FlowEventBus() : epoch_(std::chrono::steady_clock::now()) {}

void FlowEventBus::subscribe(std::shared_ptr<FlowEventSubscriber> subscriber) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (subscriber != nullptr) {
        subscribers_.push_back(std::move(subscriber));
    }
}

void FlowEventBus::publish(FlowEvent event) {
    const std::lock_guard<std::mutex> lock(mutex_);
    event.seq = nextSeq_++;
    event.wallMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - epoch_)
                       .count();
    for (const auto& subscriber : subscribers_) {
        subscriber->onEvent(event);
    }
}

std::uint64_t FlowEventBus::published() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return nextSeq_;
}

void LogSubscriber::onEvent(const FlowEvent& event) {
    switch (event.kind) {
    case FlowEventKind::StageRetry:
    case FlowEventKind::StageTimeout:
    case FlowEventKind::StageDegraded:
    case FlowEventKind::StageFailed:
    case FlowEventKind::DigestMismatch:
    case FlowEventKind::ArtifactRejected:
    case FlowEventKind::ArtifactQuarantined:
        Logger::global().warn("flow: " + event.render());
        break;
    case FlowEventKind::CacheHit:
    case FlowEventKind::StoreHit:
        Logger::global().info("flow: " + event.render());
        break;
    default:
        Logger::global().debug("flow: " + event.render());
        break;
    }
}

void StageTableSubscriber::onEvent(const FlowEvent& event) {
    if (event.stage.empty()) {
        return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    FlowDiagnostics::StageOutcome& row = rows_[event.stage];
    row.stage = event.stage;
    switch (event.kind) {
    case FlowEventKind::StageBegin:
        row.source = "ran";
        break;
    case FlowEventKind::StageTimeout:
        ++row.timeouts;
        break;
    case FlowEventKind::StageCommit:
        row.attempts = event.attempt;
        row.toolSeconds = event.toolSeconds;
        row.hostMs = event.hostMs;
        row.committed = true;
        break;
    case FlowEventKind::StageDegraded:
        row.attempts = event.attempt;
        row.hostMs = event.hostMs;
        row.source = "degraded";
        break;
    case FlowEventKind::StageFailed:
        row.attempts = event.attempt;
        row.hostMs = event.hostMs;
        row.source = "failed";
        break;
    case FlowEventKind::CacheHit:
        row.source = "cache hit";
        break;
    case FlowEventKind::StoreHit:
        row.source = "store hit";
        break;
    case FlowEventKind::ArtifactRejected:
        ++rejections_;
        break;
    default:
        break;
    }
}

std::vector<FlowDiagnostics::StageOutcome> StageTableSubscriber::orderedRows(
    const std::vector<std::string>& stageOrder) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FlowDiagnostics::StageOutcome> ordered;
    ordered.reserve(stageOrder.size());
    for (const std::string& stage : stageOrder) {
        const auto it = rows_.find(stage);
        if (it != rows_.end()) {
            ordered.push_back(it->second);
        }
    }
    return ordered;
}

void ChromeTraceSubscriber::onEvent(const FlowEvent& event) {
    switch (event.kind) {
    case FlowEventKind::StageBegin:
        openBegins_[event.stage] = event.wallMs;
        break;
    case FlowEventKind::StageCommit:
    case FlowEventKind::StageDegraded:
    case FlowEventKind::StageFailed: {
        const auto it = openBegins_.find(event.stage);
        if (it == openBegins_.end()) {
            break;
        }
        Span span;
        span.name = event.stage;
        span.beginMs = it->second;
        span.endMs = event.wallMs;
        span.outcome = event.kind == FlowEventKind::StageCommit     ? "commit"
                       : event.kind == FlowEventKind::StageDegraded ? "degraded"
                                                                    : "failed";
        spans_.push_back(std::move(span));
        openBegins_.erase(it);
        break;
    }
    default:
        break;
    }
}

std::string ChromeTraceSubscriber::renderJson() const {
    // Stages run one at a time, so spans_ is already in begin order.
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const auto& span : spans_) {
        if (!first) {
            out += ",";
        }
        first = false;
        out += format("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                      "\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"outcome\":\"%s\"}}",
                      span.name.c_str(), span.beginMs * 1000.0,
                      (span.endMs - span.beginMs) * 1000.0, span.outcome.c_str());
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

void ChromeTraceSubscriber::write(const std::string& path) const {
    writeFileAtomic(path, renderJson());
}

} // namespace socgen::core
