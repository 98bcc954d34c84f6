#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace socgen {

/// Base class for all tool-flow failures (bad DSL input, HLS errors,
/// over-capacity synthesis, malformed files, ...). Carries a plain
/// human-readable message; sub-phases prefix their own context.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/// Raised by the DSL front ends (embedded builder and textual parser) on
/// malformed task-graph descriptions.
class DslError : public Error {
public:
    explicit DslError(const std::string& message) : Error("dsl: " + message) {}
};

/// Raised by the HLS engine (unschedulable kernel, unknown port, ...).
class HlsError : public Error {
public:
    explicit HlsError(const std::string& message) : Error("hls: " + message) {}
};

/// Raised when a process network provably deadlocks on its FIFO
/// channels — statically (a channel cycle with no initial tokens, or
/// initial tokens exceeding a channel's depth) or at simulation time
/// (every live process blocked on an internal channel, which no external
/// stimulus can ever unblock). Carries the channels and processes
/// involved so harnesses can point at the under-provisioned FIFO rather
/// than a generic "hung" diagnosis. Derives from Error (not HlsError):
/// a deadlocked network is a design bug, never degradable to software.
class ChannelDeadlockError : public Error {
public:
    ChannelDeadlockError(const std::string& message, std::vector<std::string> channels,
                         std::vector<std::string> processes)
        : Error("deadlock: " + message), channels_(std::move(channels)),
          processes_(std::move(processes)) {}

    /// Channel names on the offending cycle (static check) or blocked on
    /// (runtime watchdog).
    [[nodiscard]] const std::vector<std::string>& channels() const { return channels_; }

    /// Processes on the offending cycle / blocked at detection time.
    [[nodiscard]] const std::vector<std::string>& processes() const { return processes_; }

private:
    std::vector<std::string> channels_;
    std::vector<std::string> processes_;
};

/// Raised by system integration / synthesis (unroutable link, device
/// over capacity, ...).
class SynthesisError : public Error {
public:
    explicit SynthesisError(const std::string& message) : Error("synth: " + message) {}
};

/// Raised by the cycle simulator (deadlock, protocol violation, ...).
class SimulationError : public Error {
public:
    explicit SimulationError(const std::string& message) : Error("sim: " + message) {}
};

/// Raised when a runtime watchdog expires (IRQ that never arrives,
/// register poll that never satisfies its condition). Distinguishable
/// from a generic SimulationError so harnesses can treat "hung but
/// diagnosed" differently from protocol violations.
class WatchdogError : public SimulationError {
public:
    explicit WatchdogError(const std::string& message)
        : SimulationError("watchdog: " + message) {}
};

/// Raised when a bitstream fails verification on load; carries the
/// indices of the sections whose CRCs failed.
class BitstreamError : public Error {
public:
    BitstreamError(const std::string& message, std::vector<std::size_t> badSections)
        : Error("bitstream: " + message), badSections_(std::move(badSections)) {}

    [[nodiscard]] const std::vector<std::size_t>& badSections() const {
        return badSections_;
    }

private:
    std::vector<std::size_t> badSections_;
};

/// Raised by the flat binary codec primitives (BinReader) on a malformed
/// byte stream: truncation, implausible element counts, trailing bytes.
/// The artifact store, which persists encodings, wraps it in its own
/// error type.
class CodecError : public Error {
public:
    explicit CodecError(const std::string& message) : Error("codec: " + message) {}
};

/// Raised by the persistent artifact store: unreadable object files,
/// payload digest mismatches, truncated encodings. Treated as transient
/// by the stage supervisor — a corrupt artifact is rebuilt, not fatal.
class ArtifactError : public Error {
public:
    explicit ArtifactError(const std::string& message) : Error("artifact: " + message) {}
};

/// Named corruption error for a store object that exists but fails
/// validation (bad magic, digest mismatch, undecodable payload). Raised
/// by ArtifactStore::loadOrThrow / verifyObject so embedders can
/// distinguish "corrupt on disk — quarantined" from a plain miss instead
/// of inferring it from a reason string.
class ArtifactCorruptError : public ArtifactError {
public:
    explicit ArtifactCorruptError(const std::string& message)
        : ArtifactError("corrupt: " + message) {}
};

/// Raised by the stage-graph engine on a malformed flow graph: duplicate
/// stage names, dependencies on unknown stages, or dependency cycles.
/// Always a socgen (or embedding) bug, never transient — the graph shape
/// is fixed before execution starts, so it is neither retried nor
/// degraded.
class StageGraphError : public Error {
public:
    explicit StageGraphError(const std::string& message)
        : Error("stage-graph: " + message) {}
};

/// Raised when a supervised flow stage exceeds its deadline. Transient:
/// the supervisor retries the stage (the hang may have been a stuck
/// tool invocation).
class StageTimeoutError : public Error {
public:
    explicit StageTimeoutError(const std::string& message)
        : Error("stage-timeout: " + message) {}
};

/// Simulated process death, thrown by an injected FlowCrash fault at a
/// journal record boundary. Never retried and never degraded: it models
/// `kill -9`, so it must unwind the whole flow, leaving only the journal
/// and the artifact store behind for the next run to resume from.
class FlowCrashError : public Error {
public:
    explicit FlowCrashError(const std::string& message) : Error("crash: " + message) {}
};

/// Internal invariant check that throws instead of aborting so tests can
/// assert on failures. Use for conditions that indicate a socgen bug.
void require(bool condition, std::string_view what);

} // namespace socgen
