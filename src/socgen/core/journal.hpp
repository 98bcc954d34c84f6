#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace socgen::core {

/// One journal record. `event` is "header", "begin", "commit", or
/// "note"; `stage` names the flow stage ("scala", "hls:GAUSS",
/// "integrate", "synth", "software", "artifacts"); `digest` carries the
/// stage's output digest on commit (and the flow fingerprint on the
/// header record). Records are deliberately wall-clock-free so two runs
/// of the same flow produce byte-identical journals regardless of
/// machine speed or the thread the stages ran on.
struct JournalRecord {
    std::uint64_t seq = 0;
    std::string event;
    std::string stage;
    std::string digest;
    std::string note;

    /// Stable single-line JSON form (the on-disk format).
    [[nodiscard]] std::string renderJson() const;

    /// Parses one JSONL line; returns nullopt on malformed input (the
    /// caller treats that as a truncated tail and recovers).
    [[nodiscard]] static std::optional<JournalRecord> parseJson(std::string_view line);
};

/// Append-only stage journal for one flow run directory — the flow's
/// write-ahead log. Every stage appends a `begin` record before doing
/// work and a `commit` record (with an output digest) after the work's
/// artifacts are durably stored, so after a crash the next run can see
/// exactly which stages completed and verify its recomputed outputs
/// against the committed digests.
///
/// Crash tolerance on open: a torn final line (the writer died mid-
/// append) is dropped and the file is compacted to the valid prefix.
class FlowJournal {
public:
    /// Opens `path`, loading any valid records already present.
    static FlowJournal open(std::string path);

    /// True if the journal's header record matches `flowFingerprint`
    /// (false when empty or when the flow inputs changed).
    [[nodiscard]] bool matchesHeader(const std::string& flowFingerprint) const;

    /// Truncates the journal and writes a fresh header. Called when the
    /// flow fingerprint does not match — committed stages of a different
    /// flow configuration must not be trusted.
    void reset(const std::string& flowFingerprint, const std::string& note);

    void begin(const std::string& stage);
    void commit(const std::string& stage, const std::string& digest,
                const std::string& note = "");
    void noteEvent(const std::string& stage, const std::string& note);

    /// True if `stage` has a commit record.
    [[nodiscard]] bool isCommitted(const std::string& stage) const;

    /// Digest of the last commit record for `stage`, or nullopt.
    [[nodiscard]] std::optional<std::string> committedDigest(const std::string& stage) const;

    /// Stages with a commit record, in first-commit order.
    [[nodiscard]] std::vector<std::string> committedStages() const;

    [[nodiscard]] const std::vector<JournalRecord>& records() const { return records_; }
    [[nodiscard]] const std::string& path() const { return path_; }

    /// The full journal as text — byte-comparable across runs.
    [[nodiscard]] std::string renderText() const;

private:
    explicit FlowJournal(std::string path) : path_(std::move(path)) {}

    void append(JournalRecord record);
    void rewrite();

    std::string path_;
    std::vector<JournalRecord> records_;
    std::map<std::string, std::string> committed_;  ///< stage -> last digest
    std::vector<std::string> commitOrder_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace socgen::core
