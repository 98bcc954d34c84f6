#include "socgen/core/artifact_store.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace socgen::core {
namespace {

/// On-disk object framing: a text header (magic line, payload digest
/// line, key line) followed by the binary payload. The digest protects
/// the payload; the key line lets `fsck`-style tooling spot objects
/// renamed to the wrong key.
constexpr std::string_view kMagic = "SOCGENART1";

/// Reclaims `*.tmp*` write-then-rename leftovers in one directory.
std::size_t reclaimTempsIn(const std::filesystem::path& dir) {
    std::size_t reclaimed = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file()) {
            continue;
        }
        if (entry.path().filename().string().find(".tmp") != std::string::npos) {
            std::error_code removeEc;
            if (std::filesystem::remove(entry.path(), removeEc)) {
                ++reclaimed;
            }
        }
    }
    return reclaimed;
}

} // namespace

ArtifactStore::ArtifactStore(std::string rootDir) : root_(std::move(rootDir)) {
    // Reclaim write-then-rename leftovers: a writer that died between
    // writing its temporary and renaming it over the object leaves a
    // `<key>.art.tmp<serial>` sibling that no reader ever consults.
    // Collecting at open keeps the object directories bounded across
    // crash loops; a temporary belonging to a *live* writer of another
    // store instance could in principle be swept too, in which case that
    // writer's rename fails with an Error and the supervisor retries the
    // store — detected, never silent.
    namespace fs = std::filesystem;
    const fs::path objects = fs::path(root_) / "objects";
    reclaimedTempFiles_ += reclaimTempsIn(objects);
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(objects, ec)) {
        if (entry.is_directory()) {
            reclaimedTempFiles_ += reclaimTempsIn(entry.path());
        }
    }
    // Shard migration: move flat pre-sharding objects (`objects/<key>.art`)
    // into their digest-prefix directories. Rename is atomic within one
    // filesystem, so a crash mid-migration leaves each object in exactly
    // one of the two places and the next open finishes the job.
    for (const auto& entry : fs::directory_iterator(objects, ec)) {
        if (!entry.is_regular_file() || entry.path().extension() != ".art") {
            continue;
        }
        const std::string key = entry.path().stem().string();
        if (key.size() <= kShardPrefixLen) {
            continue;
        }
        const std::string sharded = objectPath(key);
        std::error_code mkEc;
        fs::create_directories(fs::path(sharded).parent_path(), mkEc);
        std::error_code mvEc;
        fs::rename(entry.path(), sharded, mvEc);
        if (!mvEc) {
            ++migratedObjects_;
        }
    }
    if (migratedObjects_ > 0) {
        Logger::global().info(format("store: migrated %zu flat objects into shards",
                                     migratedObjects_));
    }
}

std::string ArtifactStore::deriveKey(const hls::Kernel& kernel,
                                     const hls::Directives& directives,
                                     const soc::FpgaDevice& device,
                                     std::string_view toolVersion) {
    HashStream h;
    // v2: HlsResult payloads carry the Program network tables, so keys
    // derived before the process-network model must not alias new ones.
    h.field(std::string_view("socgen-artifact-key-v2"));
    const Digest128 kernelFp = hls::fingerprintKernel(kernel);
    const Digest128 directivesFp = hls::fingerprintDirectives(directives);
    h.field(kernelFp.hi);
    h.field(kernelFp.lo);
    h.field(directivesFp.hi);
    h.field(directivesFp.lo);
    h.field(device.part);
    h.field(device.board);
    h.field(toolVersion);
    return h.digest().hex();
}

std::string ArtifactStore::objectPath(const std::string& key) const {
    // Sharded layout: the key is a uniform digest, so its first hex
    // characters spread objects evenly across up to 256 directories.
    return root_ + "/objects/" + key.substr(0, kShardPrefixLen) + "/" + key + ".art";
}

void ArtifactStore::quarantineObject(const std::string& key, const std::string& reason,
                                     LoadDiag& diag) const {
    namespace fs = std::filesystem;
    const std::string to = root_ + "/quarantine/" + key + ".art";
    std::error_code mkEc;
    fs::create_directories(fs::path(to).parent_path(), mkEc);
    std::error_code mvEc;
    fs::rename(objectPath(key), to, mvEc);
    if (!mvEc) {
        Logger::global().warn(format("store: quarantined corrupt object %s (%s)",
                                     key.c_str(), reason.c_str()));
    } else {
        // Concurrent loader already moved it; the record below still
        // captures that this instance saw the corruption.
        Logger::global().warn(format("store: corrupt object %s (%s); already "
                                     "quarantined",
                                     key.c_str(), reason.c_str()));
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        quarantineLog_.push_back(QuarantineRecord{key, reason, to});
    }
    diag.whyMiss = reason;
    diag.quarantined = true;
    diag.quarantinePath = to;
}

std::optional<std::string> ArtifactStore::loadPayload(const std::string& key,
                                                      LoadDiag& diag) const {
    const std::string path = objectPath(key);
    if (!fileExists(path)) {
        return std::nullopt;
    }
    // A validation failure quarantines the object and reports a miss, so
    // the caller regenerates — never silently loads corruption.
    const auto corrupt = [&](const std::string& reason) -> std::optional<std::string> {
        quarantineObject(key, reason, diag);
        return std::nullopt;
    };
    std::string image;
    try {
        image = readTextFile(path);
    } catch (const Error& e) {
        // Unreadable is not provably corrupt (could be a permissions or
        // transient IO problem): report the miss but leave the object.
        diag.whyMiss = e.what();
        return std::nullopt;
    }
    // Header: magic '\n' digest-hex '\n' key '\n' payload.
    const std::size_t magicEnd = image.find('\n');
    if (magicEnd == std::string::npos || std::string_view(image).substr(0, magicEnd) != kMagic) {
        return corrupt("bad magic (not a socgen artifact)");
    }
    const std::size_t digestEnd = image.find('\n', magicEnd + 1);
    if (digestEnd == std::string::npos) {
        return corrupt("truncated header (no digest line)");
    }
    const std::size_t keyEnd = image.find('\n', digestEnd + 1);
    if (keyEnd == std::string::npos) {
        return corrupt("truncated header (no key line)");
    }
    const std::string storedDigest = image.substr(magicEnd + 1, digestEnd - magicEnd - 1);
    const std::string storedKey = image.substr(digestEnd + 1, keyEnd - digestEnd - 1);
    if (storedKey != key) {
        return corrupt(format("object key mismatch: header says %s", storedKey.c_str()));
    }
    const std::string_view payload = std::string_view(image).substr(keyEnd + 1);
    const std::string actualDigest = digest128(payload).hex();
    if (actualDigest != storedDigest) {
        return corrupt(format("payload digest mismatch (stored %s, actual %s) — corrupt "
                              "artifact, rebuilding",
                              storedDigest.c_str(), actualDigest.c_str()));
    }
    return std::string(payload);
}

std::optional<hls::HlsResult> ArtifactStore::load(const std::string& key,
                                                  LoadDiag* diag) const {
    LoadDiag local;
    LoadDiag& d = diag != nullptr ? *diag : local;
    d = LoadDiag{};
    std::optional<std::string> payload = loadPayload(key, d);
    if (!payload.has_value()) {
        return std::nullopt;
    }
    try {
        return hls::decodeHlsResult(*payload);
    } catch (const Error& e) {
        // The bytes round-tripped intact but do not decode as an
        // HlsResult: same quarantine pipeline as a digest mismatch.
        quarantineObject(key, e.what(), d);
        return std::nullopt;
    }
}

std::optional<hls::HlsResult> ArtifactStore::load(const std::string& key,
                                                  std::string* whyMiss) const {
    LoadDiag diag;
    std::optional<hls::HlsResult> result = load(key, &diag);
    if (whyMiss != nullptr) {
        *whyMiss = diag.whyMiss;
    }
    return result;
}

hls::HlsResult ArtifactStore::loadOrThrow(const std::string& key) const {
    LoadDiag diag;
    std::optional<hls::HlsResult> result = load(key, &diag);
    if (result.has_value()) {
        return std::move(*result);
    }
    if (diag.whyMiss.empty()) {
        throw ArtifactError(format("no object %s", key.c_str()));
    }
    throw ArtifactCorruptError(format("%s: %s", key.c_str(), diag.whyMiss.c_str()));
}

void ArtifactStore::store(const std::string& key, const hls::HlsResult& result) const {
    const std::string payload = hls::encodeHlsResult(result);
    std::string image;
    image.reserve(payload.size() + 64);
    image += kMagic;
    image += '\n';
    image += digest128(payload).hex();
    image += '\n';
    image += key;
    image += '\n';
    image += payload;
    try {
        writeFileAtomic(objectPath(key), image);
    } catch (const Error& e) {
        // Store failures are transient to the stage supervisor (retried),
        // so surface them under the store's own error type.
        throw ArtifactError(format("storing %s failed: %s", key.c_str(), e.what()));
    }
}

bool ArtifactStore::contains(const std::string& key) const {
    return fileExists(objectPath(key));
}

std::size_t ArtifactStore::objectCount() const {
    return keys().size();
}

std::vector<std::string> ArtifactStore::keys() const {
    namespace fs = std::filesystem;
    std::vector<std::string> out;
    const fs::path dir = fs::path(root_) / "objects";
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".art") {
            // Flat stragglers (open migrates them, but stay robust).
            out.push_back(entry.path().stem().string());
            continue;
        }
        if (!entry.is_directory()) {
            continue;
        }
        std::error_code shardEc;
        for (const auto& object : fs::directory_iterator(entry.path(), shardEc)) {
            if (object.is_regular_file() && object.path().extension() == ".art") {
                out.push_back(object.path().stem().string());
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

ArtifactStore::ScrubReport ArtifactStore::scrub() const {
    // A full load per object, so an object that frames correctly but
    // does not decode is quarantined too.
    ScrubReport report;
    for (const std::string& key : keys()) {
        ++report.scanned;
        LoadDiag diag;
        (void)load(key, &diag);
        if (diag.quarantined) {
            report.quarantined.emplace_back(key, diag.whyMiss);
        }
    }
    if (!report.quarantined.empty()) {
        Logger::global().warn(format("store: scrub quarantined %zu of %zu objects",
                                     report.quarantined.size(), report.scanned));
    }
    return report;
}

std::size_t ArtifactStore::quarantinedObjects() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return quarantineLog_.size();
}

std::vector<ArtifactStore::QuarantineRecord> ArtifactStore::quarantineRecords() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return quarantineLog_;
}

void ArtifactStore::corruptObject(const std::string& key) const {
    const std::string path = objectPath(key);
    if (!fileExists(path)) {
        throw ArtifactError("cannot corrupt missing object " + key);
    }
    std::string image = readTextFile(path);
    // Flip a bit in the middle of the payload (past the header lines) so
    // the framing survives but the digest check must fail.
    const std::size_t pos = image.size() - 1 - image.size() / 4;
    image[pos] = static_cast<char>(image[pos] ^ 0x40);
    writeFileAtomic(path, image);
}

void ArtifactStore::removeObject(const std::string& key) const {
    std::error_code ec;
    std::filesystem::remove(objectPath(key), ec);
}

} // namespace socgen::core
