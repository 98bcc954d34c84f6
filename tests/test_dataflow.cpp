// Process-network node model (CTest label: dataflow): static network
// verification and deadlock detection, the runtime cosim watchdog with
// stalled-channel forensics, codec round-trips with a torn-payload
// sweep, per-process incremental synthesis through the flow's stage
// graph (edit one process, pay for one process), per-process DSE
// directive axes, the dataflow wrapper at gate level on both RTL
// backends, and network nodes hosted by the multi-tenant flow service.

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/image.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/core/flow.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/dse/explorer.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/hls/interpreter.hpp"
#include "socgen/hls/network.hpp"
#include "socgen/hls/serialize.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/sim_backend.hpp"
#include "socgen/svc/flow_service.hpp"
#include "netlist_gen.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace socgen {
namespace {

using hls::Kernel;
using hls::NetworkChannel;
using hls::ProcessNetwork;

// ---------------------------------------------------------------------------
// Shared fixtures

/// Vector-backed KernelIo: per-port input queues, per-port output logs,
/// ports addressed by index into the program's port table.
class VectorIo final : public hls::KernelIo {
public:
    std::map<hls::PortId, std::deque<std::uint64_t>> inputs;
    std::map<hls::PortId, std::vector<std::uint64_t>> outputs;
    std::map<hls::PortId, std::uint64_t> scalars;

    std::uint64_t argValue(hls::PortId port) override { return scalars[port]; }
    void setResult(hls::PortId port, std::uint64_t value) override {
        scalars[port] = value;
    }
    bool streamRead(hls::PortId port, std::uint64_t& value) override {
        auto& q = inputs[port];
        if (q.empty()) {
            return false;
        }
        value = q.front();
        q.pop_front();
        return true;
    }
    bool streamWrite(hls::PortId port, std::uint64_t value) override {
        outputs[port].push_back(value);
        return true;
    }
};

hls::PortId portIndex(const hls::Program& program, const std::string& name) {
    for (std::size_t i = 0; i < program.ports.size(); ++i) {
        if (program.ports[i].name == name) {
            return static_cast<hls::PortId>(i);
        }
    }
    throw Error("no port " + name);
}

/// A simple sink/source stream kernel used to build ad-hoc topologies.
Kernel passThroughKernel(std::string name, std::int64_t count, unsigned width = 32) {
    hls::KernelBuilder kb(std::move(name));
    const hls::PortId in = kb.streamIn("din", width);
    const hls::PortId out = kb.streamOut("dout", width);
    const hls::VarId i = kb.var("i", 32);
    kb.forLoop(i, kb.c(count));
    kb.write(out, kb.read(in));
    kb.endLoop();
    return kb.build();
}

/// Two pass-through processes in a feedback loop: a → b → a. With no
/// initial tokens anywhere the loop is a static deadlock.
ProcessNetwork feedbackLoop(std::uint32_t tokensOnBack, std::uint32_t backDepth = 4) {
    ProcessNetwork net("loop");
    net.addProcess("a", passThroughKernel("a", 8));
    net.addProcess("b", passThroughKernel("b", 8));
    net.connect(NetworkChannel{"fwd", "a", "dout", "b", "din", 32, 4, 0});
    net.connect(NetworkChannel{"back", "b", "dout", "a", "din", 32, backDepth,
                               tokensOnBack});
    return net;
}

// ---------------------------------------------------------------------------
// Trivial networks: the legacy single-kernel node is the one-process
// network, byte for byte.

TEST(TrivialNetwork, WrapsKernelWithIdentitySignature) {
    const ProcessNetwork net = ProcessNetwork::fromKernel(apps::makeAddKernel());
    EXPECT_TRUE(net.trivial());
    ASSERT_EQ(net.processes().size(), 1u);
    EXPECT_TRUE(net.channels().empty());
    EXPECT_NO_THROW(net.verify());
    const auto external = net.externalPorts();
    const auto kernelPorts = net.processes().front().kernel.ports();
    ASSERT_EQ(external.size(), kernelPorts.size());
    for (std::size_t i = 0; i < external.size(); ++i) {
        EXPECT_EQ(external[i].name, kernelPorts[i].name);
        EXPECT_EQ(external[i].kind, kernelPorts[i].kind);
        EXPECT_EQ(external[i].width, kernelPorts[i].width);
    }
}

TEST(TrivialNetwork, AssemblyReturnsProcessResultUnchanged) {
    const hls::HlsEngine engine;
    const Kernel kernel = apps::makeAddKernel();
    const hls::HlsResult direct = engine.synthesize(kernel, hls::Directives{});
    const hls::HlsResult viaNet =
        engine.synthesize(ProcessNetwork::fromKernel(kernel));
    EXPECT_EQ(direct.vhdl, viaNet.vhdl);
    EXPECT_EQ(direct.verilog, viaNet.verilog);
    EXPECT_EQ(hls::encodeHlsResult(direct), hls::encodeHlsResult(viaNet));
}

TEST(KernelLibrary, NetworkAndLegacyAccessors) {
    hls::KernelLibrary lib;
    lib.add(apps::makeAddKernel());
    lib.add(apps::makeStreamTriadNetwork(16));
    EXPECT_TRUE(lib.has("ADD"));
    EXPECT_TRUE(lib.has("streamTriad"));
    EXPECT_NO_THROW((void)lib.get("ADD"));
    EXPECT_TRUE(lib.network("ADD").trivial());
    EXPECT_FALSE(lib.network("streamTriad").trivial());
    // The legacy accessor refuses to flatten a real network.
    EXPECT_THROW((void)lib.get("streamTriad"), HlsError);
}

// ---------------------------------------------------------------------------
// Static verification: dangling / multiply-used ports, scalar channels,
// width mismatches, and the token-free-cycle deadlock check.

TEST(NetworkVerify, AcceptsTheExampleNetworks) {
    EXPECT_NO_THROW(apps::makeStreamTriadNetwork(64).verify());
    EXPECT_NO_THROW(apps::makeStreamPipelineNetwork(64).verify());
    EXPECT_NO_THROW(apps::makeOtsuDataflowNetwork(64, 64).verify());
}

TEST(NetworkVerify, DanglingPortRejected) {
    ProcessNetwork net("n");
    net.addProcess("p", passThroughKernel("p", 8));
    net.exportPort("din", "p", "din");
    // p.dout is neither on a channel nor exported.
    try {
        net.verify();
        FAIL() << "expected HlsError";
    } catch (const HlsError& e) {
        EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("p.dout"), std::string::npos);
    }
}

TEST(NetworkVerify, MultiplyUsedPortRejected) {
    ProcessNetwork net = apps::makeStreamTriadNetwork(16);
    // "filter.dout" already feeds the "cooked" channel; exporting it too
    // would fan the stream out to two consumers.
    net.exportPort("tap", "filter", "dout");
    try {
        net.verify();
        FAIL() << "expected HlsError";
    } catch (const HlsError& e) {
        EXPECT_NE(std::string(e.what()).find("filter.dout"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("exactly once"), std::string::npos);
    }
}

TEST(NetworkVerify, ScalarPortCannotSitOnChannel) {
    ProcessNetwork net("n");
    net.addProcess("src", passThroughKernel("src", 8));
    {
        hls::KernelBuilder kb("snk");
        const hls::PortId a = kb.scalarIn("a", 32);
        const hls::PortId r = kb.scalarOut("r", 32);
        kb.setResult(r, kb.arg(a));
        net.addProcess("snk", kb.build());
    }
    net.exportPort("din", "src", "din");
    net.exportPort("r", "snk", "r");
    net.connect(NetworkChannel{"c", "src", "dout", "snk", "a", 32, 2, 0});
    try {
        net.verify();
        FAIL() << "expected HlsError";
    } catch (const HlsError& e) {
        EXPECT_NE(std::string(e.what()).find("not a stream input"), std::string::npos);
    }
}

TEST(NetworkVerify, ChannelWidthMustMatchPorts) {
    ProcessNetwork net("n");
    net.addProcess("a", passThroughKernel("a", 8, 32));
    net.addProcess("b", passThroughKernel("b", 8, 16));
    net.exportPort("din", "a", "din");
    net.exportPort("dout", "b", "dout");
    net.connect(NetworkChannel{"c", "a", "dout", "b", "din", 32, 2, 0});
    EXPECT_THROW(net.verify(), HlsError);
}

TEST(NetworkVerify, TokenFreeCycleIsStaticDeadlock) {
    const ProcessNetwork net = feedbackLoop(/*tokensOnBack=*/0);
    try {
        net.verify();
        FAIL() << "expected ChannelDeadlockError";
    } catch (const ChannelDeadlockError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("deadlock"), std::string::npos);
        // The report names the channels and processes on the cycle.
        ASSERT_EQ(e.channels().size(), 2u);
        EXPECT_NE(what.find("fwd"), std::string::npos);
        EXPECT_NE(what.find("back"), std::string::npos);
        ASSERT_EQ(e.processes().size(), 2u);
    }
}

TEST(NetworkVerify, InitialTokenBreaksTheCycle) {
    EXPECT_NO_THROW(feedbackLoop(/*tokensOnBack=*/1).verify());
}

TEST(NetworkVerify, InitialTokensBeyondDepthRejected) {
    try {
        feedbackLoop(/*tokensOnBack=*/5, /*backDepth=*/4).verify();
        FAIL() << "expected ChannelDeadlockError";
    } catch (const ChannelDeadlockError& e) {
        EXPECT_NE(std::string(e.what()).find("insufficient channel depth"),
                  std::string::npos);
        ASSERT_EQ(e.channels().size(), 1u);
        EXPECT_EQ(e.channels()[0], "back");
    }
}

// ---------------------------------------------------------------------------
// Network execution on the kernel VM: functional equivalence and the
// runtime deadlock watchdog.

TEST(NetworkVm, TriadChecksumMatchesReference) {
    constexpr std::int64_t kSamples = 500;
    const hls::HlsResult r =
        hls::HlsEngine{}.synthesize(apps::makeStreamTriadNetwork(kSamples));
    VectorIo io;
    hls::KernelVm vm(r.program, io);
    EXPECT_TRUE(vm.isNetwork());
    EXPECT_EQ(vm.processCount(), 3u);
    vm.start();
    while (!vm.finished()) {
        vm.tick();
        ASSERT_LT(vm.cycles(), 1'000'000u) << "triad network livelocked";
    }
    EXPECT_EQ(io.scalars[portIndex(r.program, "checksum")],
              apps::streamTriadChecksumRef(kSamples));
}

TEST(NetworkVm, PipelineBitIdenticalToFusedKernel) {
    constexpr std::int64_t kSamples = 96;
    const hls::HlsEngine engine;
    const hls::HlsResult fused =
        engine.synthesize(apps::makeFusedTriStageKernel(kSamples), hls::Directives{});
    const hls::HlsResult piped =
        engine.synthesize(apps::makeStreamPipelineNetwork(kSamples));

    std::vector<std::uint32_t> input;
    for (std::int64_t i = 0; i < kSamples; ++i) {
        input.push_back(static_cast<std::uint32_t>(0x9e3779b9u * (i + 1)));
    }
    const std::vector<std::uint32_t> expected = apps::triStageRef(input);

    std::vector<std::vector<std::uint64_t>> got;
    std::vector<std::uint64_t> cyclesTaken;
    for (const hls::HlsResult* r : {&fused, &piped}) {
        VectorIo io;
        auto& q = io.inputs[portIndex(r->program, "din")];
        for (const std::uint32_t v : input) {
            q.push_back(v);
        }
        hls::KernelVm vm(r->program, io);
        vm.start();
        while (!vm.finished()) {
            vm.tick();
            ASSERT_LT(vm.cycles(), 10'000'000u);
        }
        got.push_back(io.outputs[portIndex(r->program, "dout")]);
        cyclesTaken.push_back(vm.cycles());
    }
    ASSERT_EQ(got[0].size(), expected.size());
    ASSERT_EQ(got[1].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[0][i], expected[i]) << "fused sample " << i;
        EXPECT_EQ(got[1][i], expected[i]) << "piped sample " << i;
    }
    // The overlapped schedule must actually overlap: strictly fewer
    // cycles than the stage-at-a-time kernel (the 1.5x acceptance bar
    // lives in bench_dataflow; here we only pin the direction).
    EXPECT_LT(cyclesTaken[1], cyclesTaken[0]);
}

TEST(NetworkVm, OtsuDataflowMatchesSoftwareReference) {
    apps::RgbImage scene(16, 12);
    for (unsigned y = 0; y < 12; ++y) {
        for (unsigned x = 0; x < 16; ++x) {
            const bool fg = ((x / 4) + (y / 3)) % 2 == 0;
            scene.set(x, y, fg ? 210 : 25, fg ? 190 : 35, fg ? 150 : 45);
        }
    }
    const std::int64_t pixels = static_cast<std::int64_t>(scene.pixelCount());
    const hls::HlsResult r = hls::HlsEngine{}.synthesize(
        apps::makeOtsuDataflowNetwork(pixels, static_cast<std::uint32_t>(pixels)),
        apps::otsuDataflowDirectives());
    VectorIo io;
    auto& q = io.inputs[portIndex(r.program, "imageIn")];
    for (const std::uint32_t px : scene.packedPixels()) {
        q.push_back(px);
    }
    hls::KernelVm vm(r.program, io);
    vm.start();
    while (!vm.finished()) {
        vm.tick();
        ASSERT_LT(vm.cycles(), 50'000'000u);
    }
    const apps::GrayImage reference = apps::otsuFilterRef(scene);
    const auto& out = io.outputs[portIndex(r.program, "segmentedGrayImage")];
    ASSERT_EQ(out.size(), reference.pixelCount());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], reference.pixels()[i]) << "pixel " << i;
    }
}

/// The cosim watchdog: the Otsu bypass channel must buffer the whole
/// image (the threshold only exists after the histogram pass), so an
/// under-provisioned depth is a guaranteed runtime deadlock. The VM must
/// diagnose it immediately — naming the stuck channel and embedding the
/// per-channel/per-process forensics — instead of spinning forever.
TEST(NetworkVm, RuntimeDeadlockNamesTheStarvedChannel) {
    apps::RgbImage scene(16, 12);
    for (unsigned y = 0; y < 12; ++y) {
        for (unsigned x = 0; x < 16; ++x) {
            scene.set(x, y, (x * 16) & 0xFF, (y * 20) & 0xFF, 128);
        }
    }
    const std::int64_t pixels = static_cast<std::int64_t>(scene.pixelCount());
    // Depth 4 << 192 pixels: grayScale jams on the bypass long before
    // the histogram finishes, and the whole network wedges.
    const hls::HlsResult r = hls::HlsEngine{}.synthesize(
        apps::makeOtsuDataflowNetwork(pixels, 4), apps::otsuDataflowDirectives());
    VectorIo io;
    auto& q = io.inputs[portIndex(r.program, "imageIn")];
    for (const std::uint32_t px : scene.packedPixels()) {
        q.push_back(px);
    }
    hls::KernelVm vm(r.program, io);
    vm.start();
    try {
        for (int cycle = 0; cycle < 10'000'000 && !vm.finished(); ++cycle) {
            vm.tick();
        }
        FAIL() << "expected ChannelDeadlockError";
    } catch (const ChannelDeadlockError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("grayToSeg"), std::string::npos) << what;
        EXPECT_NE(what.find("stall state"), std::string::npos) << what;
        EXPECT_NE(what.find("blocked on channel"), std::string::npos) << what;
        ASSERT_FALSE(e.channels().empty());
        ASSERT_FALSE(e.processes().empty());
    }
}

TEST(NetworkVm, StallReportShowsChannelOccupancy) {
    const hls::HlsResult r =
        hls::HlsEngine{}.synthesize(apps::makeStreamPipelineNetwork(32));
    VectorIo io;  // no input: stage0 blocks on the external din port
    hls::KernelVm vm(r.program, io);
    vm.start();
    for (int cycle = 0; cycle < 20; ++cycle) {
        vm.tick();  // must NOT throw: an externally blocked process can
                    // always be unblocked by more stimulus
    }
    EXPECT_TRUE(vm.running());
    const std::string report = vm.networkStallReport();
    EXPECT_NE(report.find("channel"), std::string::npos);
    EXPECT_NE(report.find("s01"), std::string::npos);
    EXPECT_NE(report.find("blocked on external port 'din'"), std::string::npos)
        << report;
}

// ---------------------------------------------------------------------------
// Serialization: round-trips, fingerprints, and the torn-payload sweep.

/// Deterministic pseudo-random pipeline topologies (no feedback, so
/// verify() always passes): 2..5 stages, mixed widths and depths, a few
/// initial tokens sprinkled in.
ProcessNetwork randomPipeline(std::uint64_t seed) {
    testing::SplitMix64 rng(seed ^ 0xdf0d9e1a2b3c4d5eULL);
    const std::size_t stages = 2 + rng.below(4);
    ProcessNetwork net("fuzz" + std::to_string(seed));
    for (std::size_t s = 0; s < stages; ++s) {
        net.addProcess("p" + std::to_string(s),
                       apps::makeStreamStageKernel("p" + std::to_string(s),
                                                   8 + static_cast<std::int64_t>(rng.below(56)),
                                                   static_cast<std::int64_t>(rng.below(100))));
    }
    for (std::size_t s = 0; s + 1 < stages; ++s) {
        const std::uint32_t depth = 1 + static_cast<std::uint32_t>(rng.below(15));
        net.connect(NetworkChannel{"c" + std::to_string(s), "p" + std::to_string(s),
                                   "dout", "p" + std::to_string(s + 1), "din", 32, depth,
                                   static_cast<std::uint32_t>(rng.below(depth + 1))});
    }
    net.exportPort("din", "p0", "din");
    net.exportPort("dout", "p" + std::to_string(stages - 1), "dout");
    return net;
}

TEST(NetworkCodec, RoundTripFuzz) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        const ProcessNetwork net = randomPipeline(seed);
        const std::string bytes = hls::encodeProcessNetwork(net);
        const ProcessNetwork back = hls::decodeProcessNetwork(bytes);
        // Re-encoding the decode must be byte-identical, and the content
        // fingerprint must survive the trip.
        EXPECT_EQ(hls::encodeProcessNetwork(back), bytes) << "seed " << seed;
        const Digest128 a = hls::fingerprintNetwork(net);
        const Digest128 b = hls::fingerprintNetwork(back);
        EXPECT_EQ(a.hi, b.hi);
        EXPECT_EQ(a.lo, b.lo);
    }
}

TEST(NetworkCodec, OtsuNetworkRoundTrips) {
    const ProcessNetwork net = apps::makeOtsuDataflowNetwork(4096, 4096);
    const std::string bytes = hls::encodeProcessNetwork(net);
    const ProcessNetwork back = hls::decodeProcessNetwork(bytes);
    EXPECT_EQ(back.name(), "otsuDataflow");
    ASSERT_EQ(back.processes().size(), 4u);
    EXPECT_EQ(back.processes()[0].name, "grayScale");
    ASSERT_EQ(back.channels().size(), 4u);
    EXPECT_EQ(back.channels()[3].depth, 4096u);
    EXPECT_EQ(hls::encodeProcessNetwork(back), bytes);
}

/// Torn payloads: every proper prefix of a valid encoding must be
/// rejected with a typed error — never a crash, never a silently
/// half-decoded network (mirrors the flow-journal truncation sweep).
TEST(NetworkCodec, TruncationSweepEveryByteOffset) {
    const std::string bytes =
        hls::encodeProcessNetwork(apps::makeStreamTriadNetwork(32));
    ASSERT_GT(bytes.size(), 64u);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW((void)hls::decodeProcessNetwork(std::string_view(bytes).substr(0, cut)),
                     CodecError)
            << "prefix of " << cut << " bytes decoded";
    }
    // Trailing garbage is framing damage too (expectEnd).
    EXPECT_THROW((void)hls::decodeProcessNetwork(bytes + '\0'), CodecError);
}

/// Bit-rot sweep: flipping one byte at every offset must either still
/// decode to a structurally valid network or throw a typed error; any
/// other exception (or a crash) fails the test. This is the wire
/// protocol's guarantee to the worker fleet: malformed networks are
/// rejected with named errors, not propagated.
TEST(NetworkCodec, CorruptionSweepNeverCrashes) {
    const std::string bytes =
        hls::encodeProcessNetwork(apps::makeStreamTriadNetwork(8));
    std::size_t rejected = 0;
    for (std::size_t at = 0; at < bytes.size(); ++at) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
        try {
            const ProcessNetwork net = hls::decodeProcessNetwork(mutated);
            EXPECT_NO_THROW(net.verify());  // decode already verified
        } catch (const CodecError&) {
            ++rejected;
        } catch (const ChannelDeadlockError&) {
            ++rejected;
        } catch (const HlsError&) {
            ++rejected;
        }
    }
    // A healthy share of single-byte flips hits framing or semantic
    // checks; many flips land in string payloads (names survive as
    // different-but-valid identifiers) and decode fine, which is
    // acceptable — the guarantee is "typed rejection or valid network",
    // not a rejection rate.
    EXPECT_GT(rejected, bytes.size() / 4);
}

TEST(NetworkCodec, DecodeRefusesStructurallyBrokenNetworks) {
    // encode() does not verify, so a builder bug (or hostile peer) can
    // put a dangling-port network on the wire — decode must refuse it.
    ProcessNetwork broken("broken");
    broken.addProcess("p", passThroughKernel("p", 8));
    broken.exportPort("din", "p", "din");  // p.dout left dangling
    const std::string bytes = hls::encodeProcessNetwork(broken);
    try {
        (void)hls::decodeProcessNetwork(bytes);
        FAIL() << "expected HlsError";
    } catch (const HlsError& e) {
        EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos);
    }
}

TEST(NetworkCodec, FingerprintSeparatesTopologyFromContent) {
    const ProcessNetwork a = apps::makeStreamPipelineNetwork(64);
    ProcessNetwork b = apps::makeStreamPipelineNetwork(64);
    const Digest128 fa = hls::fingerprintNetwork(a);
    const Digest128 fb = hls::fingerprintNetwork(b);
    EXPECT_EQ(fa.hi, fb.hi);
    EXPECT_EQ(fa.lo, fb.lo);
    // A depth change alone must change the fingerprint (it changes the
    // generated FIFO), even though every kernel is identical.
    ProcessNetwork c("triStagePipe");
    for (const auto& p : a.processes()) {
        c.addProcess(p.name, p.kernel);
    }
    c.connect(NetworkChannel{"s01", "stage0", "dout", "stage1", "din", 32, 16, 0});
    c.connect(NetworkChannel{"s12", "stage1", "dout", "stage2", "din", 32, 8, 0});
    c.exportPort("din", "stage0", "din");
    c.exportPort("dout", "stage2", "dout");
    const Digest128 fc = hls::fingerprintNetwork(c);
    EXPECT_TRUE(fc.hi != fa.hi || fc.lo != fa.lo);
}

// ---------------------------------------------------------------------------
// Flow integration: a network node through the full stage graph.

core::TaskGraph pipelineGraph() {
    constexpr const char* dsl = R"(
object dataflow extends App {
  tg nodes;
    tg node "triStagePipe" is "din" is "dout" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("triStagePipe","din") end;
    tg link ("triStagePipe","dout") to 'soc end;
  tg end_edges;
}
)";
    return core::parseDsl(dsl).graph;
}

hls::KernelLibrary pipelineKernels(std::int64_t samples = 64) {
    hls::KernelLibrary lib;
    lib.add(apps::makeStreamPipelineNetwork(samples));
    return lib;
}

TEST(NetworkFlow, StageGraphSynthesizesEveryProcess) {
    const hls::KernelLibrary kernels = pipelineKernels();
    core::Flow flow(core::FlowOptions{}, kernels);
    const core::FlowResult result = flow.run("dataflow_basic", pipelineGraph());

    ASSERT_EQ(result.hlsResults.count("triStagePipe"), 1u);
    EXPECT_TRUE(result.programs.at("triStagePipe").isNetwork());
    const core::FlowDiagnostics& diag = result.diagnostics;
    ASSERT_EQ(diag.nodes.size(), 1u);
    const auto& node = diag.nodes[0];
    EXPECT_FALSE(node.degraded);
    ASSERT_EQ(node.processes.size(), 3u);
    EXPECT_EQ(node.processes[0].process, "stage0");
    EXPECT_EQ(node.processes[1].process, "stage1");
    EXPECT_EQ(node.processes[2].process, "stage2");
    for (const auto& p : node.processes) {
        EXPECT_FALSE(p.degraded);
        EXPECT_EQ(p.attempts, 1u);
        EXPECT_FALSE(p.artifactKey.empty());
    }
    EXPECT_EQ(diag.processEngineRuns(), 3u);
    EXPECT_EQ(diag.processCacheHits(), 0u);
    // Per-process stages are first-class rows of the stage table, and
    // the render shows the per-process sub-lines.
    bool sawProcessStage = false;
    for (const auto& stage : diag.stages) {
        sawProcessStage |= stage.stage == "hls:triStagePipe/stage1";
    }
    EXPECT_TRUE(sawProcessStage);
    EXPECT_NE(diag.render().find("triStagePipe/stage1"), std::string::npos);
}

/// Satellite (f): editing ONE process re-synthesizes exactly that
/// process — the same 3/1/0 contract test_dse pins for whole kernels,
/// here at process granularity through the shared HlsCache.
TEST(NetworkFlow, EditingOneProcessResynthesizesOnlyIt) {
    const auto cache = std::make_shared<core::HlsCache>();
    core::FlowOptions options;
    options.runSynthesis = false;
    options.generateSoftware = false;

    // Cold: all three processes hit the engine.
    const hls::KernelLibrary v1 = pipelineKernels();
    const core::FlowResult r1 =
        core::Flow(options, v1, cache).run("edit_one_a", pipelineGraph());
    EXPECT_EQ(r1.diagnostics.processEngineRuns(), 3u);
    EXPECT_EQ(r1.diagnostics.processCacheHits(), 0u);

    // Same network again: fully cached, zero engine runs.
    const core::FlowResult r2 =
        core::Flow(options, v1, cache).run("edit_one_b", pipelineGraph());
    EXPECT_EQ(r2.diagnostics.processEngineRuns(), 0u);
    EXPECT_EQ(r2.diagnostics.processCacheHits(), 3u);

    // "Edit" stage1 (different addend => different kernel fingerprint):
    // exactly one process re-synthesizes, the neighbours stay cached.
    hls::KernelLibrary v2;
    {
        ProcessNetwork net("triStagePipe");
        net.addProcess("stage0", apps::makeStreamStageKernel("stage0", 64, 1));
        net.addProcess("stage1", apps::makeStreamStageKernel("stage1", 64, 7));
        net.addProcess("stage2", apps::makeStreamStageKernel("stage2", 64, 9));
        net.connect(NetworkChannel{"s01", "stage0", "dout", "stage1", "din", 32, 8, 0});
        net.connect(NetworkChannel{"s12", "stage1", "dout", "stage2", "din", 32, 8, 0});
        net.exportPort("din", "stage0", "din");
        net.exportPort("dout", "stage2", "dout");
        v2.add(std::move(net));
    }
    const core::FlowResult r3 =
        core::Flow(options, v2, cache).run("edit_one_c", pipelineGraph());
    EXPECT_EQ(r3.diagnostics.processEngineRuns(), 1u);
    EXPECT_EQ(r3.diagnostics.processCacheHits(), 2u);
    ASSERT_EQ(r3.diagnostics.nodes.size(), 1u);
    EXPECT_TRUE(r3.diagnostics.nodes[0].processes[0].cacheHit);
    EXPECT_FALSE(r3.diagnostics.nodes[0].processes[1].cacheHit);
    EXPECT_TRUE(r3.diagnostics.nodes[0].processes[2].cacheHit);
}

TEST(NetworkFlow, ScalarNetworkNodeOverAxiLite) {
    constexpr const char* dsl = R"(
object triad extends App {
  tg nodes;
    tg node "streamTriad" i "checksum" end;
  tg end_nodes;
  tg edges;
    tg connect "streamTriad";
  tg end_edges;
}
)";
    hls::KernelLibrary lib;
    lib.add(apps::makeStreamTriadNetwork(64));
    core::Flow flow(core::FlowOptions{}, lib);
    const core::FlowResult result =
        flow.run("dataflow_triad", core::parseDsl(dsl).graph);
    EXPECT_FALSE(result.diagnostics.anyDegraded());
    EXPECT_EQ(result.diagnostics.processEngineRuns(), 3u);
}

TEST(NetworkFlow, StaticDeadlockAbortsInsteadOfDegrading) {
    constexpr const char* dsl = R"(
object loop extends App {
  tg nodes;
    tg node "loop" is "x" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("loop","x") end;
  tg end_edges;
}
)";
    hls::KernelLibrary lib;
    lib.add(feedbackLoop(/*tokensOnBack=*/0));
    core::Flow flow(core::FlowOptions{}, lib);
    // A deadlocked topology is a design error like a DSL mismatch: the
    // flow must refuse to run it, not degrade the node to software.
    EXPECT_THROW((void)flow.run("dataflow_loop", core::parseDsl(dsl).graph),
                 ChannelDeadlockError);
}

TEST(NetworkFlow, InterfaceMismatchStillNamedPerPort) {
    constexpr const char* dsl = R"(
object bad extends App {
  tg nodes;
    tg node "triStagePipe" is "din" is "nope" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("triStagePipe","din") end;
    tg link ("triStagePipe","nope") to 'soc end;
  tg end_edges;
}
)";
    const hls::KernelLibrary kernels = pipelineKernels();
    core::Flow flow(core::FlowOptions{}, kernels);
    try {
        (void)flow.run("dataflow_badport", core::parseDsl(dsl).graph);
        FAIL() << "expected DslError";
    } catch (const DslError& e) {
        EXPECT_NE(std::string(e.what()).find("no port 'nope'"), std::string::npos);
    }
}

TEST(NetworkFlow, JobsParityBitIdentical) {
    std::vector<std::string> digests;
    std::vector<std::string> renders;
    for (const unsigned jobs : {1u, 4u}) {
        core::FlowOptions options;
        options.jobs = jobs;
        const hls::KernelLibrary kernels = pipelineKernels();
        core::Flow flow(options, kernels);
        const core::FlowResult result =
            flow.run("dataflow_jobs", pipelineGraph());
        digests.push_back(digest128(result.bitstream.serialize()).hex());
        renders.push_back(result.diagnostics.render());
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(renders[0], renders[1]);
}

/// Fault injection by node name must take the whole network down: every
/// process attempt fails, and with the Degrade policy the node (not the
/// flow) reports the failure, per-process records included.
TEST(NetworkFlow, InjectedFailureDegradesWholeNode) {
    core::FlowOptions options;
    options.runSynthesis = false;
    options.generateSoftware = false;
    options.injectHlsFailures.insert("triStagePipe");
    const hls::KernelLibrary kernels = pipelineKernels();
    core::Flow flow(options, kernels);
    const core::FlowResult result =
        flow.run("dataflow_inject", pipelineGraph());
    ASSERT_EQ(result.diagnostics.nodes.size(), 1u);
    const auto& node = result.diagnostics.nodes[0];
    EXPECT_TRUE(node.degraded);
    ASSERT_EQ(node.processes.size(), 3u);
    for (const auto& p : node.processes) {
        EXPECT_TRUE(p.degraded) << p.process;
        EXPECT_FALSE(p.error.empty());
    }
    EXPECT_EQ(result.hlsResults.count("triStagePipe"), 0u);
}

// ---------------------------------------------------------------------------
// DSE: per-process directive axes ("node/process" keys).

TEST(NetworkDse, PerProcessDirectiveAxis) {
    const hls::KernelLibrary kernels = pipelineKernels();

    dse::DirectiveVariant base;
    base.name = "base";
    dse::DirectiveVariant perProcess;
    perProcess.name = "unroll-stage1";
    perProcess.kernelDirectives["triStagePipe/stage1"].unrollFactors["i"] = 4;

    core::FlowOptions options;
    options.runSynthesis = false;
    options.generateSoftware = false;
    dse::Explorer explorer(options, kernels);
    const auto outcomes =
        explorer.sweep("dataflow_dse", pipelineGraph(), {base, perProcess});
    ASSERT_EQ(outcomes.size(), 2u);

    EXPECT_EQ(outcomes[0].result.diagnostics.processEngineRuns(), 3u);
    // Scoping the directive to one process invalidates exactly that
    // process's artifact key: one engine run, two cache hits.
    EXPECT_EQ(outcomes[1].result.diagnostics.processEngineRuns(), 1u);
    EXPECT_EQ(outcomes[1].result.diagnostics.processCacheHits(), 2u);
    // And the variant's netlists genuinely differ for the re-synthesized
    // node result.
    EXPECT_NE(outcomes[0].result.hlsResults.at("triStagePipe").vhdl,
              outcomes[1].result.hlsResults.at("triStagePipe").vhdl);
}

// ---------------------------------------------------------------------------
// Gate level: the FIFO primitive and the assembled dataflow wrapper on
// both RTL backends, plus a batched-cosim sweep over the wrapper.

/// Streams `values` through a netlist with in_/out_ AXI-Stream faces
/// (the FIFO primitive), returning what came out the read face.
std::vector<std::uint64_t> pumpFifo(rtl::Simulator& sim,
                                    const std::vector<std::uint64_t>& values,
                                    std::size_t expectOut, bool throttleReader) {
    std::vector<std::uint64_t> out;
    std::size_t fed = 0;
    for (int cycle = 0; cycle < 4096 && out.size() < expectOut; ++cycle) {
        const bool readerReady = !throttleReader || cycle % 3 == 0;
        sim.setInput("in_tvalid", fed < values.size() ? 1 : 0);
        sim.setInput("in_tdata", fed < values.size() ? values[fed] : 0);
        sim.setInput("out_tready", readerReady ? 1 : 0);
        sim.evaluate();
        const bool pushed = fed < values.size() && sim.output("in_tready") != 0;
        const bool popped = readerReady && sim.output("out_tvalid") != 0;
        const std::uint64_t popData = sim.output("out_tdata");
        sim.step();
        if (pushed) {
            ++fed;
        }
        if (popped) {
            out.push_back(popData);
        }
    }
    return out;
}

TEST(FifoPrimitive, FirstInFirstOutOnBothBackends) {
    const rtl::Netlist fifo = rtl::makeFifo("f", 16, 4);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 40; ++i) {
        values.push_back(static_cast<std::uint64_t>((i * 7919) & 0xFFFF));
    }
    for (const rtl::SimBackend backend :
         {rtl::SimBackend::EventDriven, rtl::SimBackend::Compiled}) {
        const auto sim = rtl::makeSimulator(fifo, backend);
        const auto out = pumpFifo(*sim, values, values.size(), /*throttleReader=*/true);
        ASSERT_EQ(out.size(), values.size()) << sim->backendName();
        EXPECT_EQ(out, values) << sim->backendName();
    }
}

TEST(FifoPrimitive, InitialTokensReadAsQueuedZeros) {
    const rtl::Netlist fifo = rtl::makeFifo("f", 8, 4, 2);
    const auto sim = rtl::makeSimulator(fifo, rtl::SimBackend::EventDriven);
    const std::vector<std::uint64_t> values{0xA5, 0x3C};
    const auto out = pumpFifo(*sim, values, values.size() + 2, false);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 0u);
    EXPECT_EQ(out[2], 0xA5u);
    EXPECT_EQ(out[3], 0x3Cu);
}

TEST(FifoPrimitive, BackpressuresWhenFull) {
    const rtl::Netlist fifo = rtl::makeFifo("f", 8, 2);
    const auto sim = rtl::makeSimulator(fifo, rtl::SimBackend::EventDriven);
    sim->setInput("in_tvalid", 1);
    sim->setInput("in_tdata", 1);
    sim->setInput("out_tready", 0);
    int accepted = 0;
    for (int cycle = 0; cycle < 16; ++cycle) {
        sim->evaluate();
        if (sim->output("in_tready") != 0) {
            ++accepted;
        }
        sim->step();
    }
    EXPECT_EQ(accepted, 2);  // exactly `depth` pushes, then tready drops
}

/// Runs the assembled wrapper netlist end to end at gate level: drive
/// the external AXI-Stream handshakes cycle-accurately and collect the
/// output stream until ap_done.
struct WrapperRun {
    std::vector<std::uint64_t> out;
    bool done = false;
    int doneCycle = -1;
};

WrapperRun cosimWrapper(const rtl::Netlist& netlist, rtl::SimBackend backend,
                        const std::vector<std::uint32_t>& input) {
    const auto simPtr = rtl::makeSimulator(netlist, backend);
    rtl::Simulator& sim = *simPtr;
    WrapperRun run;
    std::size_t fed = 0;
    sim.setInput("ap_start", 1);
    for (int cycle = 0; cycle < 10'000; ++cycle) {
        sim.setInput("din_tvalid", fed < input.size() ? 1 : 0);
        sim.setInput("din_tdata", fed < input.size() ? input[fed] : 0);
        sim.setInput("dout_tready", 1);
        sim.evaluate();
        const bool pushed = fed < input.size() && sim.output("din_tready") != 0;
        const bool popped = sim.output("dout_tvalid") != 0;
        const std::uint64_t popData = sim.output("dout_tdata");
        const bool done = sim.output("ap_done") != 0;
        sim.step();
        if (pushed) {
            ++fed;
        }
        if (popped) {
            run.out.push_back(popData);
        }
        if (done) {
            run.done = true;
            run.doneCycle = cycle;
            break;
        }
    }
    return run;
}

/// Gate-level arithmetic on a single process core: the external stream
/// feeds the core directly, so the one beat its saturating-schedule FSM
/// consumes is the testbench's first sample and the emitted beat must
/// be the stage transform of it, on both backends.
TEST(NetworkRtl, SingleCoreComputesTheBeatItConsumes) {
    const hls::HlsResult core = hls::HlsEngine{}.synthesize(
        hls::ProcessNetwork::fromKernel(apps::makeStreamStageKernel("s", 8, 5)));
    const std::vector<std::uint32_t> input{41, 7, 9};
    for (const rtl::SimBackend backend :
         {rtl::SimBackend::EventDriven, rtl::SimBackend::Compiled}) {
        const WrapperRun run = cosimWrapper(core.netlist, backend, input);
        ASSERT_TRUE(run.done) << "backend " << rtl::simBackendName(backend);
        ASSERT_EQ(run.out.size(), 1u) << "backend " << rtl::simBackendName(backend);
        EXPECT_EQ(run.out.front(), (41u + 5u) * 3u)
            << "backend " << rtl::simBackendName(backend);
    }
}

/// End-to-end wrapper cosim. The control FSM in generated cores is the
/// repo-wide saturating-schedule placeholder (it walks the schedule
/// once on a fixed cycle count; it neither re-iterates loop trip counts
/// nor stalls on FIFO state), so the wrapper's gate-level contract is
/// structural: exactly one beat emerges from the chain of three cores
/// and two FIFOs, every core saturates, the AND-tree raises ap_done,
/// and the whole run is byte-identical across backends. Multi-beat
/// functional behaviour (full streams, overlap, bit-identity with the
/// fused kernel) is pinned by the NetworkVm suite above; cycle-level
/// backend equivalence by WrapperBackendsAgreeUnderRandomStimulus.
TEST(NetworkRtl, WrapperCosimFlowsOneBeatThroughEveryCore) {
    const hls::HlsResult piped =
        hls::HlsEngine{}.synthesize(apps::makeStreamPipelineNetwork(24));
    // The wrapper exposes the single-kernel port conventions, so the SoC
    // integration layer can host it blindly.
    EXPECT_TRUE(piped.netlist.hasPort("ap_start"));
    EXPECT_TRUE(piped.netlist.hasPort("ap_done"));
    EXPECT_TRUE(piped.netlist.hasPort("din_tdata"));
    EXPECT_TRUE(piped.netlist.hasPort("dout_tvalid"));

    std::vector<std::uint32_t> input;
    for (std::int64_t i = 0; i < 24; ++i) {
        input.push_back(static_cast<std::uint32_t>(i * 11 + 3));
    }
    WrapperRun first;
    for (const rtl::SimBackend backend :
         {rtl::SimBackend::EventDriven, rtl::SimBackend::Compiled}) {
        const WrapperRun run = cosimWrapper(piped.netlist, backend, input);
        ASSERT_TRUE(run.done) << "backend " << rtl::simBackendName(backend);
        EXPECT_EQ(run.out.size(), 1u) << "backend " << rtl::simBackendName(backend);
        if (backend == rtl::SimBackend::EventDriven) {
            first = run;
        } else {
            EXPECT_EQ(run.out, first.out);
            EXPECT_EQ(run.doneCycle, first.doneCycle);
        }
    }
}

/// Backend lockstep under adversarial (non-protocol) stimulus: random
/// handshake wiggling must produce identical outputs cycle for cycle on
/// the event-driven and compiled engines — the FIFO primitive and the
/// wrapper glue lower identically on both.
TEST(NetworkRtl, WrapperBackendsAgreeUnderRandomStimulus) {
    const hls::HlsResult piped =
        hls::HlsEngine{}.synthesize(apps::makeStreamPipelineNetwork(16));
    const auto ev = rtl::makeSimulator(piped.netlist, rtl::SimBackend::EventDriven);
    const auto cp = rtl::makeSimulator(piped.netlist, rtl::SimBackend::Compiled);
    testing::SplitMix64 rng(0xdf01);
    for (int cycle = 0; cycle < 400; ++cycle) {
        for (const auto& port : piped.netlist.ports()) {
            if (port.dir != rtl::PortDir::In) {
                continue;
            }
            const std::uint64_t value = port.name == "ap_start"
                                            ? 1
                                            : rng.below(port.name.ends_with("_tdata")
                                                            ? 0x100000000ULL
                                                            : 2ULL);
            ev->setInput(port.name, value);
            cp->setInput(port.name, value);
        }
        ev->step();
        cp->step();
        ev->evaluate();
        cp->evaluate();
        for (const auto& port : piped.netlist.ports()) {
            if (port.dir == rtl::PortDir::Out) {
                ASSERT_EQ(ev->output(port.name), cp->output(port.name))
                    << port.name << " diverged at cycle " << cycle;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flow service: network nodes across tenants on the shared pool (the CI
// job re-runs this suite with SOCGEN_SVC_WORKERS=2 so the same flows
// also cross the worker-fleet wire protocol).

TEST(NetworkService, TenantsShareProcessGranularSynthesis) {
    const std::string root = ::testing::TempDir() + "/socgen_dataflow_svc";
    std::filesystem::remove_all(root);
    svc::ServiceConfig config;
    config.rootDir = root;
    config.stageWorkers = 4;
    config.flowRunners = 2;

    const hls::KernelLibrary kernels = pipelineKernels();
    // Reference digest from a standalone run of the same project.
    const core::FlowResult reference =
        core::Flow(core::FlowOptions{}, kernels).run("svc_net", pipelineGraph());
    const std::string referenceDigest =
        digest128(reference.bitstream.serialize()).hex();

    svc::FlowService service(config, kernels);
    std::vector<svc::FlowHandle> handles;
    for (int t = 0; t < 2; ++t) {
        svc::FlowRequest request;
        request.tenant = "tenant" + std::to_string(t);
        request.project = "svc_net";
        request.graph = pipelineGraph();
        handles.push_back(service.submit(request));
    }
    std::size_t engineRuns = 0;
    for (const svc::FlowHandle& handle : handles) {
        const svc::RequestOutcome outcome = handle.wait();
        ASSERT_EQ(outcome.state, svc::RequestState::Completed) << outcome.error;
        EXPECT_EQ(outcome.bitstreamDigest, referenceDigest);
        EXPECT_FALSE(outcome.diagnostics.anyDegraded());
        engineRuns += outcome.diagnostics.processEngineRuns();
    }
    // Three unique processes service-wide: the second tenant reuses the
    // first tenant's per-process artifacts (warm or in-flight).
    EXPECT_EQ(engineRuns, 3u);
    std::filesystem::remove_all(root);
}

} // namespace
} // namespace socgen
