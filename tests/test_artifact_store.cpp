// Sharded, self-healing artifact store tests (CTest label: resilience):
// digest-prefix shard layout, flat-store migration, read-path
// quarantine of corrupt objects, and the scrub pass.

#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/artifact_store.hpp"
#include "socgen/hls/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

namespace socgen::core {
namespace {

namespace fs = std::filesystem;

struct StoreFixture {
    std::string root;
    hls::Kernel kernel = apps::makeMulKernel();
    hls::Directives directives;
    hls::HlsResult result;

    StoreFixture() {
        static int serial = 0;
        root = (fs::temp_directory_path() /
                ("socgen_store_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(serial++)))
                   .string();
        fs::remove_all(root);
        result = hls::HlsEngine().synthesize(kernel, directives);
    }
    ~StoreFixture() { fs::remove_all(root); }

    [[nodiscard]] std::string keyFor(const std::string& toolVersion) const {
        return ArtifactStore::deriveKey(kernel, directives, soc::zedboard(), toolVersion);
    }
};

TEST(ArtifactStoreShards, ObjectsLandInDigestPrefixDirectories) {
    StoreFixture fx;
    ArtifactStore store(fx.root);
    const std::string key = fx.keyFor("v1");
    store.store(key, fx.result);

    const fs::path expected = fs::path(fx.root) / "objects" /
                              key.substr(0, ArtifactStore::kShardPrefixLen) /
                              (key + ".art");
    EXPECT_TRUE(fs::is_regular_file(expected));
    EXPECT_TRUE(store.contains(key));
    EXPECT_EQ(store.objectCount(), 1u);
    EXPECT_EQ(store.keys(), std::vector<std::string>{key});
    const std::optional<hls::HlsResult> loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(hls::encodeHlsResult(*loaded), hls::encodeHlsResult(fx.result));
}

TEST(ArtifactStoreShards, FlatLegacyObjectsMigrateOnOpen) {
    StoreFixture fx;
    const std::string key = fx.keyFor("v1");
    std::string encoded;
    {
        ArtifactStore store(fx.root);
        store.store(key, fx.result);
        encoded = readTextFile(fs::path(fx.root).string() + "/objects/" +
                               key.substr(0, ArtifactStore::kShardPrefixLen) + "/" + key +
                               ".art");
    }
    // Rebuild the pre-sharding layout: the object flat in objects/.
    fs::remove_all(fs::path(fx.root) / "objects");
    fs::create_directories(fs::path(fx.root) / "objects");
    writeFileAtomic(fs::path(fx.root).string() + "/objects/" + key + ".art", encoded);

    ArtifactStore reopened(fx.root);
    EXPECT_EQ(reopened.migratedObjects(), 1u);
    EXPECT_TRUE(fs::is_regular_file(fs::path(fx.root) / "objects" /
                                    key.substr(0, ArtifactStore::kShardPrefixLen) /
                                    (key + ".art")));
    EXPECT_FALSE(fs::exists(fs::path(fx.root) / "objects" / (key + ".art")));
    EXPECT_TRUE(reopened.load(key).has_value());
}

TEST(ArtifactStoreShards, ReclaimsTempFilesInsideShardDirectories) {
    StoreFixture fx;
    {
        ArtifactStore store(fx.root);
        store.store(fx.keyFor("v1"), fx.result);
    }
    writeFileAtomic(fx.root + "/objects/0123.art.tmp1", "torn");
    writeFileAtomic(fx.root + "/objects/ab/4567.art.tmp42", "torn");
    ArtifactStore reopened(fx.root);
    EXPECT_EQ(reopened.reclaimedTempFiles(), 2u);
    EXPECT_FALSE(fs::exists(fx.root + "/objects/0123.art.tmp1"));
    EXPECT_FALSE(fs::exists(fx.root + "/objects/ab/4567.art.tmp42"));
}

TEST(ArtifactStoreQuarantine, CorruptObjectIsQuarantinedOnLoad) {
    StoreFixture fx;
    ArtifactStore store(fx.root);
    const std::string key = fx.keyFor("v1");
    store.store(key, fx.result);
    store.corruptObject(key);

    ArtifactStore::LoadDiag diag;
    EXPECT_EQ(store.load(key, &diag), std::nullopt);
    EXPECT_NE(diag.whyMiss.find("digest mismatch"), std::string::npos) << diag.whyMiss;
    EXPECT_TRUE(diag.quarantined);
    EXPECT_TRUE(fs::is_regular_file(diag.quarantinePath));
    // The corpse left the object tree: the key now reads as a plain miss
    // and the caller re-synthesizes.
    EXPECT_FALSE(store.contains(key));
    EXPECT_EQ(store.quarantinedObjects(), 1u);
    ASSERT_EQ(store.quarantineRecords().size(), 1u);
    EXPECT_EQ(store.quarantineRecords()[0].key, key);

    // Re-synthesis heals transparently.
    store.store(key, fx.result);
    EXPECT_TRUE(store.load(key).has_value());
}

TEST(ArtifactStoreQuarantine, RoundTripValidateQuarantine) {
    // The whole life of one key: miss, round trip, digest-mismatch
    // quarantine, re-store over the quarantined slot, clean scrub.
    StoreFixture fx;
    ArtifactStore store(fx.root);
    const std::string key = fx.keyFor("v1");
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_TRUE(store.keys().empty());

    store.store(key, fx.result);
    EXPECT_TRUE(store.contains(key));
    EXPECT_EQ(store.objectCount(), 1u);
    EXPECT_EQ(store.keys(), std::vector<std::string>{key});
    const std::optional<hls::HlsResult> loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(hls::encodeHlsResult(*loaded), hls::encodeHlsResult(fx.result));

    store.corruptObject(key);
    ArtifactStore::LoadDiag diag;
    EXPECT_FALSE(store.load(key, &diag).has_value());
    EXPECT_TRUE(diag.quarantined);
    EXPECT_NE(diag.whyMiss.find("digest mismatch"), std::string::npos) << diag.whyMiss;
    EXPECT_FALSE(store.contains(key));
    EXPECT_TRUE(store.keys().empty());
    EXPECT_EQ(store.quarantinedObjects(), 1u);
    ASSERT_EQ(store.quarantineRecords().size(), 1u);
    EXPECT_EQ(store.quarantineRecords().front().key, key);
    EXPECT_TRUE(fs::is_regular_file(diag.quarantinePath));

    store.store(key, fx.result);
    const ArtifactStore::ScrubReport report = store.scrub();
    EXPECT_EQ(report.scanned, 1u);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(store.keys(), std::vector<std::string>{key});
}

TEST(ArtifactStoreQuarantine, ForeignMagicIsQuarantinedNotDecoded) {
    // An object whose digest and key lines are intact but whose magic line
    // names another format is never decoded: it is quarantined on load.
    StoreFixture fx;
    ArtifactStore store(fx.root);
    const std::string key = fx.keyFor("v1");
    store.store(key, fx.result);
    const std::string path = fx.root + "/objects/" +
                             key.substr(0, ArtifactStore::kShardPrefixLen) + "/" + key +
                             ".art";
    const std::string image = readTextFile(path);
    ASSERT_EQ(image.rfind("SOCGENART1\n", 0), 0u);
    writeFileAtomic(path, "SOCGENSO1" + image.substr(image.find('\n')));

    ArtifactStore::LoadDiag diag;
    EXPECT_EQ(store.load(key, &diag), std::nullopt);
    EXPECT_TRUE(diag.quarantined);
    EXPECT_NE(diag.whyMiss.find("bad magic"), std::string::npos) << diag.whyMiss;
    EXPECT_FALSE(store.contains(key));
    EXPECT_EQ(store.quarantinedObjects(), 1u);
}

TEST(ArtifactStoreQuarantine, LoadOrThrowNamesTheFailure) {
    StoreFixture fx;
    ArtifactStore store(fx.root);
    const std::string key = fx.keyFor("v1");
    EXPECT_THROW((void)store.loadOrThrow(key), ArtifactError);

    store.store(key, fx.result);
    EXPECT_NO_THROW((void)store.loadOrThrow(key));

    store.corruptObject(key);
    // Corruption is a *named* error, never silently propagated downstream.
    EXPECT_THROW((void)store.loadOrThrow(key), ArtifactCorruptError);
    EXPECT_EQ(store.quarantinedObjects(), 1u);
}

TEST(ArtifactStoreQuarantine, ScrubWalksAllShardsAndHeals) {
    StoreFixture fx;
    ArtifactStore store(fx.root);
    const std::string k1 = fx.keyFor("v1");
    const std::string k2 = fx.keyFor("v2");
    const std::string k3 = fx.keyFor("v3");
    store.store(k1, fx.result);
    store.store(k2, fx.result);
    store.store(k3, fx.result);
    store.corruptObject(k2);

    const ArtifactStore::ScrubReport report = store.scrub();
    EXPECT_EQ(report.scanned, 3u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].first, k2);
    EXPECT_EQ(store.objectCount(), 2u);
    EXPECT_TRUE(store.load(k1).has_value());
    EXPECT_TRUE(store.load(k3).has_value());

    // A second scrub over the healed store finds nothing.
    const ArtifactStore::ScrubReport again = store.scrub();
    EXPECT_EQ(again.scanned, 2u);
    EXPECT_TRUE(again.quarantined.empty());
}

} // namespace
} // namespace socgen::core
