// The board record (CTest label: resilience): every counter a simulated
// Otsu board run leaves behind — the execution report, per-channel
// traffic and stall counts, monitor occupancy, cycle counts, fault logs
// and rendered deadlock reports — for Arch1-4 under polling and
// interrupt drivers and under seeded fault plans.
// - Golden.BoardRecord pins the record to tests/golden/board_record.txt.
//   Regenerate on purpose with SOCGEN_UPDATE_GOLDEN=1 and review the diff
//   like any other code change.
// - BoardFastForward runs every configuration again with a probe that
//   makes the engine tick every component on every cycle, and requires
//   the same record: per-component sleep and the jumps of the clock must
//   be invisible in every counter.

#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu_project.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/sim/engine.hpp"
#include "socgen/sim/fault.hpp"
#include "socgen/socgen.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace socgen {
namespace {

constexpr unsigned kSide = 32;
constexpr std::int64_t kPixels = static_cast<std::int64_t>(kSide) * kSide;

struct BoardCase {
    apps::RgbImage scene = apps::makeSyntheticScene(kSide, kSide);
    apps::GrayImage reference = apps::otsuFilterRef(scene);
    core::Htg htg = apps::makeOtsuHtg();
    hls::KernelLibrary kernels = apps::makeOtsuKernelLibrary(kPixels);
    std::shared_ptr<core::HlsCache> cache = std::make_shared<core::HlsCache>();
    std::vector<core::FlowResult> archs = buildArchs();

    std::vector<core::FlowResult> buildArchs() {
        std::vector<core::FlowResult> out;
        for (int arch = 1; arch <= 4; ++arch) {
            core::Flow flow(apps::otsuFlowOptions(), kernels, cache);
            out.push_back(flow.run(format("Arch%d", arch),
                                   core::lowerToTaskGraph(htg, apps::otsuArchPartition(arch))));
        }
        return out;
    }
};

BoardCase& fixture() {
    static BoardCase instance;
    return instance;
}

/// One board configuration: an architecture, driver options and an
/// optional fault plan.
struct BoardConfig {
    std::string label;
    int arch = 4;
    soc::SystemOptions options;
    sim::FaultPlan plan;
};

soc::SystemOptions interruptOptions() {
    soc::SystemOptions options;
    options.useInterrupts = true;
    options.irqWatchdogCycles = 6'000;
    options.pollWatchdogCycles = 500'000;
    return options;
}

soc::SystemOptions hardenedOptions() {
    soc::SystemOptions options = interruptOptions();
    options.dmaRetryLimit = 6;
    options.memoryEcc = true;
    return options;
}

std::vector<BoardConfig> boardConfigs() {
    std::vector<BoardConfig> configs;
    for (int arch = 1; arch <= 4; ++arch) {
        configs.push_back({format("Arch%d polling", arch), arch, {}, {}});
        configs.push_back({format("Arch%d interrupts", arch), arch, interruptOptions(), {}});
    }
    sim::FaultPlan::Space space;
    space.channels = {"'soc -> grayScale/imageIn",
                      "grayScale/imageOutCH -> computeHistogram/grayScaleImage"};
    space.irqLines = {"axi_dma_0_mm2s_introut", "axi_dma_0_s2mm_introut"};
    space.dmas = {"axi_dma_0"};
    space.maxCycle = 10'000;
    space.ddrWords = static_cast<std::uint64_t>(kPixels);
    space.eventCount = 5;
    for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
        configs.push_back({format("Arch4 random plan %llu", static_cast<unsigned long long>(seed)),
                           4, hardenedOptions(), sim::FaultPlan::randomPlan(seed, space)});
    }
    // The kinds randomPlan never draws: a delayed IRQ edge, plus a stream
    // and a DMA stall timed to overlap it, and a delayed final S2MM edge
    // that the PS sleeps on while everything else is idle.
    sim::FaultPlan handPlan;
    handPlan.delayIrq(100, "axi_dma_0_mm2s_introut", 700)
        .stallStream(1'500, "grayScale/imageOutCH -> computeHistogram/grayScaleImage", 300)
        .stallDma(2'200, "axi_dma_0", 400)
        .delayIrq(9'000, "axi_dma_0_s2mm_introut", 500);
    configs.push_back({"Arch4 delayed irq", 4, hardenedOptions(), handPlan});
    return configs;
}

/// Every counter of one board run, read after the last simulated cycle.
struct BoardRecord {
    std::string text;          ///< the rendered record (golden material)
    apps::GrayImage output;
    std::uint64_t probeCalls = 0;  ///< real steps plus jumps
    std::uint64_t coreTicks = 0;   ///< real tick() calls of all cores
    bool coreSleptWhileOthersRan = false;  ///< a core had fewer ticks than steps
};

/// Probe that copies the per-channel counters and monitor state after
/// every real cycle (or jump), so the record survives a run that throws,
/// and counts the cores' real ticks.
struct ChannelSnapshot final : sim::Probe {
    soc::SystemSimulator* sim = nullptr;
    std::vector<std::string> cores;
    std::string text;
    std::uint64_t calls = 0;
    std::uint64_t coreTicks = 0;
    bool coreSleptWhileOthersRan = false;

    void sample(std::uint64_t /*cycles*/) override {
        ++calls;
        coreTicks = 0;
        coreSleptWhileOthersRan = false;
        for (const std::string& core : cores) {
            const std::uint64_t ticks = sim->engine().realTicks(sim->core(core));
            coreTicks += ticks;
            coreSleptWhileOthersRan |= ticks < sim->engine().steps();
        }
        text.clear();
        for (std::size_t i = 0; i < sim->channelCount(); ++i) {
            const axi::StreamChannel& ch = sim->channel(i);
            const axi::StreamMonitor& mon = sim->monitor(i);
            text += format("  %s: pushed %llu popped %llu push-stalls %llu pop-stalls %llu "
                           "high-water %zu samples %llu avg-occupancy %.9f\n",
                           ch.name().c_str(),
                           static_cast<unsigned long long>(ch.beatsPushed()),
                           static_cast<unsigned long long>(ch.beatsPopped()),
                           static_cast<unsigned long long>(ch.pushStalls()),
                           static_cast<unsigned long long>(ch.popStalls()), ch.highWater(),
                           static_cast<unsigned long long>(mon.samples()),
                           mon.averageOccupancy());
        }
    }
};

/// Runs `config` through OtsuSystemRunner; `extra` is called on the built
/// simulator before the record's own probe is attached.
BoardRecord runBoard(const BoardConfig& config,
                     const std::function<void(soc::SystemSimulator&)>& extra = {}) {
    BoardCase& bc = fixture();
    apps::OtsuSystemRunner runner(bc.archs[config.arch - 1],
                                  apps::otsuArchPartition(config.arch), config.options);
    sim::FaultInjector injector(config.plan);
    ChannelSnapshot snapshot;
    BoardRecord record;
    record.text = "== " + config.label + "\n";
    try {
        const auto result = runner.run(bc.scene, [&](soc::SystemSimulator& sim) {
            if (extra) {
                extra(sim);
            }
            if (!config.plan.empty()) {
                sim.armFaults(injector);
            }
            snapshot.sim = &sim;
            for (const auto& [node, program] : bc.archs[config.arch - 1].programs) {
                snapshot.cores.push_back(node);
            }
            sim.engine().addProbe(snapshot);
        });
        record.output = result.output;
        record.text += format("cycles: %llu\n", static_cast<unsigned long long>(result.cycles));
        record.text += format("output: %s\n", result.output == bc.reference
                                                  ? "matches otsuFilterRef"
                                                  : "DIFFERS from otsuFilterRef");
        record.text += result.report;
    } catch (const Error& e) {
        record.text += std::string("error: ") + e.what() + "\n";
    }
    record.text += "channels:\n" + snapshot.text;
    record.probeCalls = snapshot.calls;
    record.coreTicks = snapshot.coreTicks;
    record.coreSleptWhileOthersRan = snapshot.coreSleptWhileOthersRan;
    if (!config.plan.empty()) {
        record.text += injector.log() + "\n";
    }
    return record;
}

/// The paper-literal Arch4 topology (Listing 4) wedges on 16-deep FIFOs;
/// `interrupts` selects which verdict names the wedge: the poll watchdog
/// (polling driver) or the engine's deadlock verdict (interrupt driver,
/// where the sleeping PS makes no progress).
std::string literalWedge(bool interrupts,
                         const std::function<void(soc::SystemSimulator&)>& extra = {}) {
    BoardCase& bc = fixture();
    const core::ParsedDsl parsed = core::parseDsl(R"(
object paperArch4 extends App {
  tg nodes;
    tg node "grayScale" is "imageIn" is "imageOutCH" is "imageOutSEG" end;
    tg node "computeHistogram" is "grayScaleImage" is "histogram" end;
    tg node "halfProbability" is "histogram" is "probability" end;
    tg node "segment" is "grayScaleImage" is "otsuThreshold" is "segmentedGrayImage" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("grayScale","imageIn") end;
    tg link ("grayScale","imageOutCH") to ("computeHistogram","grayScaleImage") end;
    tg link ("grayScale","imageOutSEG") to ("segment","grayScaleImage") end;
    tg link ("computeHistogram","histogram") to ("halfProbability","histogram") end;
    tg link ("halfProbability","probability") to ("segment","otsuThreshold") end;
    tg link ("segment","segmentedGrayImage") to 'soc end;
  tg end_edges;
}
)");
    core::Flow flow(apps::otsuFlowOptions(), bc.kernels, bc.cache);
    const core::FlowResult result = flow.run(parsed.projectName, parsed.graph);
    soc::SystemOptions options;
    options.channelCapacity = 16;
    options.useInterrupts = interrupts;
    options.pollWatchdogCycles = interrupts ? 0 : 200'000;
    options.stallLimit = 20'000;
    soc::SystemSimulator sim(result.design, result.programs, options);
    if (extra) {
        extra(sim);
    }
    const std::vector<std::uint32_t> packed = bc.scene.packedPixels();
    sim.ps().task("stage", 10, [packed](soc::Memory& mem) { mem.writeBlock(0x100, packed); });
    sim.psArmReadDma("axi_dma_0", 0, 0x8000, static_cast<std::uint32_t>(kPixels));
    sim.psWriteDma("axi_dma_0", 0, 0x100, static_cast<std::uint32_t>(kPixels));
    sim.psWaitReadDma("axi_dma_0");
    std::string text = interrupts ? "== paper-literal wedge, interrupts\n"
                                  : "== paper-literal wedge, polling\n";
    try {
        (void)sim.run(5'000'000);
        text += "error: none\n";
    } catch (const Error& e) {
        text += std::string("error: ") + e.what() + "\n";
    }
    text += "snapshot: " + sim.engine().snapshot().render() + "\n";
    return text;
}

std::string goldenPath() { return std::string(SOCGEN_GOLDEN_DIR) + "/board_record.txt"; }

bool updateGolden() {
    const char* env = std::getenv("SOCGEN_UPDATE_GOLDEN");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

TEST(Golden, BoardRecord) {
    std::string record;
    for (const BoardConfig& config : boardConfigs()) {
        record += runBoard(config).text;
    }
    record += literalWedge(false);
    record += literalWedge(true);
    if (updateGolden()) {
        writeTextFile(goldenPath(), record);
        SUCCEED() << "updated " << goldenPath();
        return;
    }
    ASSERT_TRUE(fileExists(goldenPath()))
        << goldenPath() << " missing - run with SOCGEN_UPDATE_GOLDEN=1 to create it";
    EXPECT_EQ(readTextFile(goldenPath()), record)
        << "the board record drifted from tests/golden/board_record.txt";
}

/// Acts on every cycle: the engine then ticks every component on every
/// cycle and never jumps, which is per-cycle stepping.
class StepPin final : public sim::Probe {
public:
    void sample(std::uint64_t /*cycles*/) override {}
    [[nodiscard]] std::uint64_t horizon() const override { return 0; }
};

TEST(BoardFastForward, MatchesPerCycleStepping) {
    for (const BoardConfig& config : boardConfigs()) {
        StepPin pin;
        const BoardRecord fast = runBoard(config);
        const BoardRecord slow =
            runBoard(config, [&pin](soc::SystemSimulator& sim) { sim.engine().addProbe(pin); });
        EXPECT_EQ(fast.text, slow.text) << config.label;
        EXPECT_TRUE(fast.output == slow.output) << config.label;
        // Not vacuous: the free run jumped the clock, and its cores slept
        // through cycles on which other components ticked.
        EXPECT_LT(fast.probeCalls, slow.probeCalls) << config.label;
        EXPECT_LT(fast.coreTicks, slow.coreTicks) << config.label;
        EXPECT_TRUE(fast.coreSleptWhileOthersRan) << config.label;
        EXPECT_FALSE(slow.coreSleptWhileOthersRan) << config.label;
    }
}

TEST(BoardFastForward, WedgeVerdictsMatchPerCycleStepping) {
    for (const bool interrupts : {false, true}) {
        StepPin pin;
        EXPECT_EQ(literalWedge(interrupts),
                  literalWedge(interrupts,
                               [&pin](soc::SystemSimulator& sim) { sim.engine().addProbe(pin); }))
            << (interrupts ? "interrupts" : "polling");
    }
}

/// A core started over AXI-Lite (the Otsu cores start themselves): the
/// PS's register writes must wake it on the cycle they land, and its
/// done edge or status must wake the PS, under both drivers.
std::string liteStartedCore(bool interrupts, bool pinned) {
    hls::KernelLibrary kernels;
    kernels.add(apps::makeAddKernel());
    const core::FlowResult result = core::runDslText(R"(
object liteadd extends App {
  tg nodes; tg node "ADD" i "A" i "B" i "return" end; tg end_nodes;
  tg edges; tg connect "ADD"; tg end_edges;
}
)",
                                                     kernels);
    soc::SystemOptions options;
    options.useInterrupts = interrupts;
    soc::SystemSimulator sim(result.design, result.programs, options);
    StepPin pin;
    if (pinned) {
        sim.engine().addProbe(pin);
    }
    std::string text;
    for (const std::uint32_t a : {40U, 7U}) {
        sim.ps().delay(500);
        sim.psSetCoreArg("ADD", "A", a);
        sim.psSetCoreArg("ADD", "B", 2);
        sim.psStartCore("ADD");
        sim.psWaitCore("ADD");
        const std::uint64_t cycles = sim.run();
        text += format("cycles %llu return %llu\n", static_cast<unsigned long long>(cycles),
                       static_cast<unsigned long long>(sim.core("ADD").result("return")));
    }
    return text + sim.report() + sim.engine().snapshot().render();
}

TEST(BoardFastForward, LiteStartedCoreMatchesPerCycleStepping) {
    for (const bool interrupts : {false, true}) {
        const std::string fast = liteStartedCore(interrupts, false);
        EXPECT_EQ(fast, liteStartedCore(interrupts, true)) << (interrupts ? "interrupts" : "polling");
        EXPECT_NE(fast.find("return 42"), std::string::npos) << fast;
        EXPECT_NE(fast.find("return 9"), std::string::npos) << fast;
    }
}

} // namespace
} // namespace socgen
