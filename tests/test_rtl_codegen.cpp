// The generated-C++ backend's own suite: emitter determinism and key
// stability, the cold/warm shared-object cache pipeline, quarantine of
// a corrupted cached object, and the graceful degradation hop
// (Codegen → Compiled) with its structured fallback event. Lockstep
// value parity against the other two backends lives in
// test_rtl_diff_sim.cpp. ctest label: diff-sim.

#include "socgen/common/blob_store.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/rtl/codegen_emit.hpp"
#include "socgen/rtl/codegen_sim.hpp"
#include "socgen/rtl/compiled_program.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/sim_backend.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace socgen::rtl {
namespace {

/// Saves an environment variable and restores it on scope exit (copy of
/// the diff-sim helper; the suites are independent binaries).
class EnvGuard {
public:
    explicit EnvGuard(const char* name) : name_(name) {
        if (const char* value = std::getenv(name)) {
            saved_ = value;
        }
        ::unsetenv(name);
    }
    ~EnvGuard() {
        if (saved_.has_value()) {
            ::setenv(name_, saved_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    const char* name_;
    std::optional<std::string> saved_;
};

/// Captures structured fallback events for the duration of a test.
class FallbackCapture {
public:
    FallbackCapture() {
        previous_ = setSimBackendFallbackHook(
            [this](const SimBackendFallback& event) { events_.push_back(event); });
    }
    ~FallbackCapture() { (void)setSimBackendFallbackHook(std::move(previous_)); }

    [[nodiscard]] const std::vector<SimBackendFallback>& events() const {
        return events_;
    }

private:
    SimBackendFallbackHook previous_;
    std::vector<SimBackendFallback> events_;
};

/// Points the codegen cache at a fresh per-test directory and clears
/// the in-process registry/stats, so every test starts cold.
class FreshCache {
public:
    explicit FreshCache(const std::string& tag) : guard_("SOCGEN_CODEGEN_CACHE_DIR") {
        dir_ = (std::filesystem::temp_directory_path() /
                ("socgen-codegen-test-" + tag + "-" + std::to_string(::getpid())))
                   .string();
        std::filesystem::remove_all(dir_);
        ::setenv("SOCGEN_CODEGEN_CACHE_DIR", dir_.c_str(), 1);
        codegenTestReset();
    }
    ~FreshCache() {
        codegenTestReset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    [[nodiscard]] const std::string& dir() const { return dir_; }

private:
    EnvGuard guard_;
    std::string dir_;
};

bool toolchainHere() {
    static const bool available = codegenToolchainAvailable();
    return available;
}

// ---------------------------------------------------------------------------
// Emitter: deterministic bytes, stable keys.

TEST(CodegenEmit, EmitterIsByteDeterministic) {
    const Netlist netlist = makeMac("mac", 24);
    const CodegenUnit first = emitCodegenUnit(netlist, compileProgram(netlist));
    const CodegenUnit second = emitCodegenUnit(netlist, compileProgram(netlist));
    EXPECT_EQ(first.source, second.source);
    EXPECT_EQ(first.sourceDigest, second.sourceDigest);
    EXPECT_EQ(first.netlistDigest, second.netlistDigest);
    // Key stability is what makes the cache warm across processes.
    EXPECT_EQ(codegenArtifactKey(first, "test-compiler-1.0"),
              codegenArtifactKey(second, "test-compiler-1.0"));
    EXPECT_EQ(codegenArtifactKey(first, "test-compiler-1.0").size(), 32u);
}

TEST(CodegenEmit, KeySeparatesCompilerAndNetlist) {
    const Netlist mac = makeMac("mac", 24);
    const Netlist ctr = makeCounter("ctr", 8);
    const CodegenUnit macUnit = emitCodegenUnit(mac, compileProgram(mac));
    const CodegenUnit ctrUnit = emitCodegenUnit(ctr, compileProgram(ctr));
    // A compiler upgrade must recompile; a different netlist must never
    // collide with another's shared object.
    EXPECT_NE(codegenArtifactKey(macUnit, "gcc 12"),
              codegenArtifactKey(macUnit, "gcc 13"));
    EXPECT_NE(codegenArtifactKey(macUnit, "gcc 12"),
              codegenArtifactKey(ctrUnit, "gcc 12"));
    EXPECT_NE(macUnit.netlistDigest, ctrUnit.netlistDigest);
}

TEST(CodegenEmit, SourceCarriesVersionAndDigest) {
    const Netlist netlist = makeCounter("ctr", 8);
    const CodegenUnit unit = emitCodegenUnit(netlist, compileProgram(netlist));
    EXPECT_NE(unit.source.find(kCodegenEmitterVersion), std::string::npos);
    EXPECT_NE(unit.source.find(unit.netlistDigest.hex()), std::string::npos);
    EXPECT_NE(unit.source.find("socgen_cg_step"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cache pipeline: cold compile, in-process registry, store warm start.

TEST(CodegenCache, ColdThenRegistryThenStore) {
    if (!toolchainHere()) {
        GTEST_SKIP() << "no host compiler";
    }
    const FreshCache cache("coldwarm");
    const Netlist netlist = makeMac("mac", 16);

    // Cold: one emit, one compile, nothing cached anywhere.
    const CodegenSim first(netlist);
    CodegenStats stats = codegenStats();
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.storeHits, 0u);
    EXPECT_EQ(stats.registryHits, 0u);
    const std::string key = first.artifactKey();
    EXPECT_EQ(key.size(), 32u);

    // Same process, same netlist: the loaded module is shared.
    const CodegenSim second(netlist);
    stats = codegenStats();
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.registryHits, 1u);
    EXPECT_EQ(second.artifactKey(), key);

    // "New process": drop the registry — the store must serve the bytes
    // with zero recompiles.
    codegenTestReset();
    const CodegenSim third(netlist);
    stats = codegenStats();
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_EQ(stats.storeHits, 1u);

    // And the two module instances still simulate: quick smoke cycle.
    // (Full value parity is the diff suite's job.)
    CodegenSim sim(netlist);
    sim.setInput("a", 3);
    sim.setInput("b", 5);
    sim.setInput("en", 1);
    sim.step();
    sim.evaluate();
    EXPECT_EQ(sim.output("acc"), 15u);
    EXPECT_EQ(sim.cycleCount(), 1u);
    sim.reset();
    EXPECT_EQ(sim.cycleCount(), 0u);
    sim.evaluate();
    EXPECT_EQ(sim.output("acc"), 0u);

    // Simulators sharing one loaded module keep independent state: each
    // instance owns its value array, only the code is shared.
    CodegenSim other(netlist);
    EXPECT_EQ(codegenStats().compiles, 0u);
    for (unsigned cycle = 0; cycle < 4; ++cycle) {
        sim.setInput("a", 2);
        sim.setInput("b", cycle);
        sim.setInput("en", 1);
        other.setInput("a", 7);
        other.setInput("b", 1);
        other.setInput("en", cycle % 2);
        sim.step();
        other.step();
    }
    sim.evaluate();
    other.evaluate();
    EXPECT_EQ(sim.output("acc"), 2u * (0 + 1 + 2 + 3));
    EXPECT_EQ(other.output("acc"), 7u * 2);
}

TEST(CodegenCache, CorruptedSharedObjectIsQuarantinedAndRebuilt) {
    if (!toolchainHere()) {
        GTEST_SKIP() << "no host compiler";
    }
    const FreshCache cache("corrupt");
    const Netlist netlist = makeCounter("ctr", 8);
    const CodegenSim first(netlist);
    const std::string key = first.artifactKey();
    EXPECT_EQ(codegenStats().compiles, 1u);

    // Flip a payload byte in the stored object, then force a cold load.
    codegenTestReset();
    const BlobStore store(cache.dir() + "/store", "SOCGENSO1");
    ASSERT_TRUE(store.contains(key));
    store.corruptObject(key);

    // The read path must quarantine the corrupt object (a miss, not a
    // crash and not a silent load of bad machine code) and recompile.
    const CodegenSim rebuilt(netlist);
    EXPECT_EQ(rebuilt.artifactKey(), key);
    const CodegenStats stats = codegenStats();
    EXPECT_EQ(stats.storeHits, 0u);
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_TRUE(fileExists(cache.dir() + "/store/quarantine/" + key + ".art"));
    ASSERT_TRUE(store.contains(key));  // rebuilt object took the slot back
}

// ---------------------------------------------------------------------------
// Degradation chain and its structured events.

TEST(CodegenFallback, NoCompilerDegradesToCompiledWithEvent) {
    const FreshCache cache("nocxx");
    const EnvGuard cxxGuard("SOCGEN_CXX");
    ::setenv("SOCGEN_CXX", "/nonexistent/socgen-no-cxx", 1);
    const Netlist netlist = makeCounter("ctr", 8);

    // Strict construction names the problem...
    EXPECT_THROW(CodegenSim{netlist}, CodegenUnavailableError);

    // ...while the factory degrades with a structured event, not a crash.
    FallbackCapture capture;
    const auto sim = makeSimulator(netlist, SimBackend::Codegen);
    EXPECT_EQ(sim->backendName(), "compiled");
    ASSERT_EQ(capture.events().size(), 1u);
    const SimBackendFallback& event = capture.events().front();
    EXPECT_EQ(event.netlist, "ctr");
    EXPECT_EQ(event.requested, SimBackend::Codegen);
    EXPECT_EQ(event.chosen, SimBackend::Compiled);
    EXPECT_NE(event.reason.find("SOCGEN_CXX"), std::string::npos) << event.reason;

    // The same chain engages via the environment override path.
    const EnvGuard backendGuard("SOCGEN_SIM_BACKEND");
    ::setenv("SOCGEN_SIM_BACKEND", "codegen", 1);
    EXPECT_EQ(makeSimulator(netlist)->backendName(), "compiled");
}

TEST(CodegenFallback, CompileErrorSurfacesCompilerDiagnostics) {
    if (!toolchainHere()) {
        GTEST_SKIP() << "no host compiler";
    }
    const FreshCache cache("cerr");
    const std::string srcPath = cache.dir() + "/broken.cpp";
    writeTextFile(srcPath, "int broken( { this is not C++ ;\n");
    const CodegenToolchain toolchain = resolveCodegenToolchain();
    try {
        (void)compileSharedObject(toolchain, srcPath, cache.dir() + "/broken.so");
        FAIL() << "compiled a syntactically broken translation unit";
    } catch (const CodegenCompileError& e) {
        // The thrown diagnostic must embed the compiler's own stderr so
        // an emitter bug is debuggable from the test log alone.
        EXPECT_FALSE(e.compilerOutput().empty());
        EXPECT_NE(std::string(e.what()).find("error"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("broken.cpp"), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// The generic BlobStore under the shared-object cache.

TEST(BlobStoreTest, RoundTripValidateQuarantine) {
    const FreshCache cache("blob");
    const BlobStore store(cache.dir() + "/blobs", "TESTMAGIC1");
    const std::string key = "00112233445566778899aabbccddeeff";
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.load(key).has_value());

    // Long enough that corruptObject's byte flip (placed a quarter from
    // the end of the on-disk image) lands in the payload, exercising the
    // digest check rather than the header parse.
    std::string payload = "payload bytes\x01\x02";
    payload.resize(512, 'x');
    store.store(key, payload);
    EXPECT_TRUE(store.contains(key));
    EXPECT_EQ(store.objectCount(), 1u);
    EXPECT_EQ(store.keys(), std::vector<std::string>{key});
    const std::optional<std::string> loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, payload);

    // Corruption: digest mismatch -> quarantined miss with diagnostics.
    store.corruptObject(key);
    BlobStore::LoadDiag diag;
    EXPECT_FALSE(store.load(key, &diag).has_value());
    EXPECT_TRUE(diag.quarantined);
    EXPECT_NE(diag.whyMiss.find("digest mismatch"), std::string::npos) << diag.whyMiss;
    EXPECT_FALSE(store.contains(key));
    EXPECT_EQ(store.quarantinedObjects(), 1u);
    ASSERT_EQ(store.quarantineRecords().size(), 1u);
    EXPECT_EQ(store.quarantineRecords().front().key, key);
    EXPECT_TRUE(fileExists(diag.quarantinePath));

    // Re-store over the quarantined slot and scrub stays clean.
    store.store(key, "second payload");
    const BlobStore::ScrubReport report = store.scrub();
    EXPECT_EQ(report.scanned, 1u);
    EXPECT_TRUE(report.quarantined.empty());
}

TEST(BlobStoreTest, MagicMismatchIsQuarantinedNotDecoded) {
    const FreshCache cache("magic");
    const std::string root = cache.dir() + "/blobs";
    const std::string key = "ffeeddccbbaa99887766554433221100";
    {
        const BlobStore writer(root, "STOREA1");
        writer.store(key, "bytes");
    }
    // The same object opened under a different magic fails validation.
    const BlobStore reader(root, "STOREB1");
    BlobStore::LoadDiag diag;
    EXPECT_FALSE(reader.load(key, &diag).has_value());
    EXPECT_TRUE(diag.quarantined);
    EXPECT_NE(diag.whyMiss.find("bad magic"), std::string::npos) << diag.whyMiss;
}

} // namespace
} // namespace socgen::rtl
