#pragma once

#include "socgen/core/diagnostics.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace socgen::core {

/// Everything observable about a flow run, published as it happens. The
/// executor emits the lifecycle kinds; stage bodies emit the reuse kinds
/// (CacheHit/StoreHit/ArtifactRejected) because only they know where a
/// result came from.
enum class FlowEventKind {
    FlowBegin,         ///< executor accepted the graph; detail = project
    FlowEnd,           ///< all stages finished (or the flow aborted)
    StageBegin,        ///< the stage started
    StageRetry,        ///< a transient failure was absorbed; detail = error
    StageTimeout,      ///< an attempt was abandoned at the deadline
    StageCommit,       ///< stage completed; detail = output digest
    StageDegraded,     ///< failure absorbed (no commit); detail = error
    StageFailed,       ///< failure propagated; detail = error
    CacheHit,          ///< served from the in-memory HlsCache
    StoreHit,          ///< served from the persistent ArtifactStore
    ArtifactRejected,  ///< a stored object failed validation; detail = why
    DigestMismatch,    ///< recomputed output differs from the journal's commit
    ArtifactQuarantined, ///< a corrupt object was moved to quarantine/; detail = why
};

[[nodiscard]] const char* toString(FlowEventKind kind);

struct FlowEvent {
    FlowEventKind kind = FlowEventKind::StageBegin;
    std::string stage;        ///< stage name ("" for flow-level events)
    std::string detail;       ///< digest / error text / source, kind-specific
    unsigned attempt = 0;     ///< supervised attempt count at publish time
    double toolSeconds = 0.0; ///< simulated tool time (commit events)
    double hostMs = 0.0;      ///< stage wall time (commit/degraded/failed)
    std::uint64_t seq = 0;    ///< bus-assigned publish sequence number
    double wallMs = 0.0;      ///< bus-assigned ms since the bus was created

    [[nodiscard]] std::string render() const;
};

/// Subscriber interface. Delivery is serialized by the bus's lock, so a
/// subscriber needs no locking of its own, but it must not publish back
/// into the bus from onEvent (the lock is held).
class FlowEventSubscriber {
public:
    virtual ~FlowEventSubscriber() = default;
    virtual void onEvent(const FlowEvent& event) = 0;
};

/// Fan-out bus connecting the stage-graph executor (and stage bodies) to
/// any number of subscribers. Thread-safe: publish() may be called from
/// any thread (a supervised attempt with a deadline runs on its own, a
/// service flow's stages on a pool thread); events are stamped with a
/// sequence number and a wall-clock offset and delivered synchronously,
/// one at a time.
class FlowEventBus {
public:
    FlowEventBus();

    void subscribe(std::shared_ptr<FlowEventSubscriber> subscriber);

    void publish(FlowEvent event);

    [[nodiscard]] std::uint64_t published() const;

private:
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<FlowEventSubscriber>> subscribers_;
    std::uint64_t nextSeq_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

/// Bundled subscriber: structured log lines through Logger::global().
/// Begin/commit land at Debug, reuse at Info, retries/timeouts/degrades
/// and digest mismatches at Warn — the Logger level does the filtering.
class LogSubscriber : public FlowEventSubscriber {
public:
    void onEvent(const FlowEvent& event) override;
};

/// Bundled subscriber: accumulates the per-stage wall-clock table
/// (FlowDiagnostics::StageOutcome) keyed by stage name; orderedRows()
/// returns the rows in the caller's stage order. Unlike
/// delivery, orderedRows() may be called from a stage body mid-run, so
/// the table guards itself.
class StageTableSubscriber : public FlowEventSubscriber {
public:
    void onEvent(const FlowEvent& event) override;

    /// Rows for `stageOrder`, skipping stages that never began.
    [[nodiscard]] std::vector<FlowDiagnostics::StageOutcome> orderedRows(
        const std::vector<std::string>& stageOrder) const;

    [[nodiscard]] std::size_t artifactRejections() const { return rejections_; }

private:
    mutable std::mutex mutex_;
    std::map<std::string, FlowDiagnostics::StageOutcome> rows_;
    std::size_t rejections_ = 0;
};

/// Bundled subscriber: records one complete ("ph":"X") span per stage and
/// writes a chrome://tracing / Perfetto compatible JSON timeline. The
/// trace is wall-clock truth, the one flow output that differs between
/// runs; stages run one at a time, so every span is on track 0.
class ChromeTraceSubscriber : public FlowEventSubscriber {
public:
    void onEvent(const FlowEvent& event) override;

    /// The trace as a JSON string (traceEvents array form).
    [[nodiscard]] std::string renderJson() const;

    /// Writes renderJson() to `path` (atomic whole-file write).
    void write(const std::string& path) const;

private:
    struct Span {
        std::string name;
        double beginMs = 0.0;
        double endMs = 0.0;
        std::string outcome;  ///< "commit", "degraded", "failed"
    };
    std::map<std::string, double> openBegins_;  ///< stage -> begin wallMs
    std::vector<Span> spans_;
};

} // namespace socgen::core
