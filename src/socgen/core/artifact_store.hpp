#pragma once

#include "socgen/hls/serialize.hpp"
#include "socgen/soc/device.hpp"

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace socgen::core {

/// Persistent, content-addressed store of HLS results, mirroring the
/// paper's "generate each hardware core only once" caching across runs
/// and across crashes. An object's key is a digest of everything that
/// determines the synthesis output — kernel source, directives, target
/// device, and tool version — so a stale hit is impossible by
/// construction: change any input and the key changes.
///
/// Layout: objects are sharded git-style across digest-prefix
/// directories (`objects/<first-2-hex>/<key>.art`, up to 256 shards).
/// Each object is a text header (the `SOCGENART1` magic line, a payload
/// digest line, a key line) followed by the encoded HlsResult.
///
/// Durability contract:
///  - writes are atomic (temp file + rename), so a crash mid-store leaves
///    either no object or a complete object, never a torn one;
///  - every object embeds a digest of its payload, verified on load; a
///    corrupted object is *quarantined* (moved to `quarantine/<key>.art`,
///    recorded as a QuarantineRecord) and reported as a miss, so the
///    caller transparently re-synthesizes — corruption is never silently
///    loaded and never silently discarded.
class ArtifactStore {
public:
    /// Opens (and lazily creates) a store rooted at `rootDir`. Opening
    /// garbage-collects orphaned write-then-rename temporaries
    /// (`*.art.tmp<serial>` files a crashed writer left behind) — they
    /// are never valid objects, and without collection a crash loop
    /// would leak them forever — and migrates flat pre-sharding objects
    /// into their digest-prefix shard directories.
    explicit ArtifactStore(std::string rootDir);

    /// Derives the content key for one (kernel, directives, device, tool)
    /// combination: 32 hex characters.
    [[nodiscard]] static std::string deriveKey(const hls::Kernel& kernel,
                                               const hls::Directives& directives,
                                               const soc::FpgaDevice& device,
                                               std::string_view toolVersion);

    /// Validation diagnostics for one load.
    struct LoadDiag {
        std::string whyMiss;        ///< "" for a plain miss, else the reason
        bool quarantined = false;   ///< the object was moved to quarantine/
        std::string quarantinePath; ///< where it went (forensics)
    };

    /// Loads and validates the object under `key`. Returns nullopt on
    /// miss or on any validation failure (bad magic, digest mismatch,
    /// undecodable payload); a validation failure also quarantines the
    /// object. When `diag` is non-null it receives the reason and the
    /// quarantine outcome.
    [[nodiscard]] std::optional<hls::HlsResult> load(const std::string& key,
                                                     LoadDiag* diag) const;

    /// Back-compat overload: `whyMiss` receives LoadDiag::whyMiss.
    [[nodiscard]] std::optional<hls::HlsResult> load(const std::string& key,
                                                     std::string* whyMiss = nullptr) const;

    /// Like load(), but a named error instead of a silent miss: throws
    /// ArtifactError when the object is absent and ArtifactCorruptError
    /// (after quarantining) when it exists but fails validation.
    [[nodiscard]] hls::HlsResult loadOrThrow(const std::string& key) const;

    /// Atomically stores `result` under `key`, overwriting any previous
    /// object (including a corrupt one).
    void store(const std::string& key, const hls::HlsResult& result) const;

    [[nodiscard]] bool contains(const std::string& key) const;

    /// Number of objects currently on disk.
    [[nodiscard]] std::size_t objectCount() const;

    /// Keys of all objects on disk, sorted.
    [[nodiscard]] std::vector<std::string> keys() const;

    /// Walks every shard and validates every object; corrupt objects are
    /// quarantined. Self-healing pass run by the flow service at open.
    struct ScrubReport {
        std::size_t scanned = 0;
        /// (key, reason) for every object quarantined by this pass.
        std::vector<std::pair<std::string, std::string>> quarantined;
    };
    [[nodiscard]] ScrubReport scrub() const;

    /// One quarantined object (this store instance's lifetime).
    struct QuarantineRecord {
        std::string key;
        std::string reason;
        std::string quarantinePath;
    };
    [[nodiscard]] std::size_t quarantinedObjects() const;
    [[nodiscard]] std::vector<QuarantineRecord> quarantineRecords() const;

    /// Test/fault-injection hook: flips one payload byte of the stored
    /// object so the next load fails digest validation. Throws
    /// ArtifactError if the object does not exist.
    void corruptObject(const std::string& key) const;

    /// Removes the object under `key` if present.
    void removeObject(const std::string& key) const;

    /// Orphaned temporaries reclaimed when this store was opened.
    [[nodiscard]] std::size_t reclaimedTempFiles() const { return reclaimedTempFiles_; }

    /// Flat legacy objects moved into shard directories at open.
    [[nodiscard]] std::size_t migratedObjects() const { return migratedObjects_; }

    [[nodiscard]] const std::string& root() const { return root_; }

    /// Digest-prefix length of the shard layout (hex characters).
    static constexpr std::size_t kShardPrefixLen = 2;

private:
    [[nodiscard]] std::string objectPath(const std::string& key) const;
    /// Reads and frame-checks the object under `key`: its payload, or
    /// nullopt on a miss or a validation failure (which quarantines it).
    [[nodiscard]] std::optional<std::string> loadPayload(const std::string& key,
                                                         LoadDiag& diag) const;
    /// Moves the object under `key` into quarantine and records it.
    void quarantineObject(const std::string& key, const std::string& reason,
                          LoadDiag& diag) const;

    std::string root_;
    std::size_t reclaimedTempFiles_ = 0;
    std::size_t migratedObjects_ = 0;

    mutable std::mutex mutex_;
    mutable std::vector<QuarantineRecord> quarantineLog_;
};

} // namespace socgen::core
