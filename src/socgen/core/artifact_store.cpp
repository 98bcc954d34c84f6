#include "socgen/core/artifact_store.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"

#include <utility>

namespace socgen::core {
namespace {

/// On-disk object framing: a text header (magic line, payload digest
/// line, key line) followed by the binary payload. The digest protects
/// the payload; the key line lets `fsck`-style tooling spot objects
/// renamed to the wrong key.
constexpr const char* kMagic = "SOCGENART1";

} // namespace

ArtifactStore::ArtifactStore(std::string rootDir)
    : blobs_(std::move(rootDir), kMagic) {}

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

std::optional<hls::HlsResult> ArtifactStore::load(const std::string& key,
                                                  LoadDiag* diag) const {
    LoadDiag local;
    LoadDiag* d = diag != nullptr ? diag : &local;
    std::optional<std::string> payload = blobs_.load(key, d);
    if (!payload.has_value()) {
        return std::nullopt;
    }
    try {
        return hls::decodeHlsResult(*payload);
    } catch (const Error& e) {
        // The bytes round-tripped intact but do not decode as an
        // HlsResult: same quarantine pipeline as a digest mismatch.
        d->whyMiss = e.what();
        blobs_.quarantineObject(key, e.what(), d);
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
    try {
        blobs_.store(key, payload);
    } catch (const Error& e) {
        // Store failures are transient to the stage supervisor (retried),
        // so surface them under the store's own error type.
        throw ArtifactError(format("storing %s failed: %s", key.c_str(), e.what()));
    }
}

bool ArtifactStore::contains(const std::string& key) const {
    return blobs_.contains(key);
}

std::size_t ArtifactStore::objectCount() const {
    return blobs_.objectCount();
}

std::vector<std::string> ArtifactStore::keys() const {
    return blobs_.keys();
}

ArtifactStore::ScrubReport ArtifactStore::scrub() const {
    // Own loop rather than BlobStore::scrub so decode validation (the
    // typed layer's half of the contract) is part of the pass.
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
    return blobs_.quarantinedObjects();
}

std::vector<ArtifactStore::QuarantineRecord> ArtifactStore::quarantineRecords() const {
    return blobs_.quarantineRecords();
}

void ArtifactStore::corruptObject(const std::string& key) const {
    if (!blobs_.contains(key)) {
        throw ArtifactError("cannot corrupt missing object " + key);
    }
    blobs_.corruptObject(key);
}

void ArtifactStore::removeObject(const std::string& key) const {
    blobs_.removeObject(key);
}

} // namespace socgen::core
