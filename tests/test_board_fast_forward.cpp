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
//   the same record: per-component sleep, the moves a sleeping DMA owes
//   and replays, and the jumps of the clock must be invisible in every
//   counter.

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
    /// Arch4 with one DMA engine per 'soc link.
    core::FlowResult arch4PerLink = buildArch(4, soc::DmaPolicy::DmaPerLink);

    core::FlowResult buildArch(int arch, soc::DmaPolicy policy) {
        core::FlowOptions options = apps::otsuFlowOptions();
        options.dmaPolicy = policy;
        core::Flow flow(std::move(options), kernels, cache);
        return flow.run(format("Arch%d", arch),
                        core::lowerToTaskGraph(htg, apps::otsuArchPartition(arch)));
    }
    std::vector<core::FlowResult> buildArchs() {
        std::vector<core::FlowResult> out;
        for (int arch = 1; arch <= 4; ++arch) {
            out.push_back(buildArch(arch, soc::DmaPolicy::SharedDma));
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
    soc::DmaPolicy dmaPolicy = soc::DmaPolicy::SharedDma;

    [[nodiscard]] const core::FlowResult& flow() const {
        return dmaPolicy == soc::DmaPolicy::DmaPerLink ? fixture().arch4PerLink
                                                      : fixture().archs[arch - 1];
    }
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
    // The hard cases of a DMA that owes its partner's moves: two engines
    // owing at once, several beats per turn, a two-deep FIFO, and DDR
    // faults and port corruption landing on words a sleeping DMA still owes
    // (phase 1 streams 0x1000.. out and 0x100000.. in around cycles
    // 3300-6700, phase 2 0x100000.. out and 0x280000.. in around 7500-9600).
    configs.push_back({"Arch4 DMA per link", 4, {}, {}, soc::DmaPolicy::DmaPerLink});
    soc::SystemOptions twoWords;
    twoWords.dmaWordsPerCycle = 2;
    configs.push_back({"Arch1 two words per cycle", 1, twoWords, {}});
    soc::SystemOptions shallow;
    shallow.channelCapacity = 2;
    configs.push_back({"Arch4 channel capacity 2", 4, shallow, {}});
    sim::FaultPlan owedPlan;
    owedPlan.flipDdrBit(4'000, 0x1162 - 20, 3)
        .flipDdrBit(4'000, 0x100121 - 10, 5)
        .corruptMm2s(4'500, "axi_dma_0", 0x5A5A, 3)
        .corruptS2mm(5'000, "axi_dma_0", 0x0F0F, 2)
        .flipDdrBit(9'000, 0x100211 - 5, 1)
        .flipDdrBit(9'000, 0x2801D1 - 5, 6);
    configs.push_back({"Arch4 faults on owed words", 4, {}, owedPlan});
    configs.push_back({"Arch4 faults on owed words, hardened", 4, hardenedOptions(), owedPlan});
    return configs;
}

/// Every counter of one board run, read after the last simulated cycle.
struct BoardRecord {
    std::string text;          ///< the rendered record (golden material)
    apps::GrayImage output;
    std::uint64_t probeCalls = 0;  ///< real steps plus jumps
    std::uint64_t coreTicks = 0;   ///< real tick() calls of all cores
    std::uint64_t dmaTicks = 0;    ///< real tick() calls of all DMA engines
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
    std::uint64_t dmaTicks = 0;
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
        dmaTicks = 0;
        for (const std::string& dma : sim->dmaNames()) {
            dmaTicks += sim->engine().realTicks(sim->dma(dma));
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
    apps::OtsuSystemRunner runner(config.flow(), apps::otsuArchPartition(config.arch),
                                  config.options);
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
            for (const auto& [node, program] : config.flow().programs) {
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
    record.dmaTicks = snapshot.dmaTicks;
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
        if (config.label == "Arch1 polling") {
            // The DMA sleeps through the image stream, replaying the beats
            // it owes: far fewer real ticks than pixels.
            EXPECT_LT(fast.dmaTicks * 8, static_cast<std::uint64_t>(kPixels)) << fast.dmaTicks;
        }
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

/// The stream between 'soc and core port `instance`/`port` of `design`.
const soc::StreamConnection& socLink(const soc::BlockDesign& design, const std::string& instance,
                                     const std::string& port) {
    for (const auto& s : design.streams()) {
        const bool in = s.from.isSoc() && s.to.instance == instance && s.to.port == port;
        const bool out = s.to.isSoc() && s.from.instance == instance && s.from.port == port;
        if (in || out) {
            return s;
        }
    }
    throw Error("no 'soc link for " + instance + "/" + port);
}

/// What a hand-written PS program left behind on a board.
struct HandRun {
    std::string text;
    std::uint64_t dmaTicks = 0;  ///< real tick() calls of all DMA engines
};

/// Runs a hand-written PS program on `flow`'s board, free or pinned to
/// per-cycle stepping. The record holds the verdict, the execution report,
/// every channel and monitor counter, the values the program logged, `words`
/// DDR words from `dumpAt`, and a snapshot with every last-progress cycle.
HandRun handRun(const core::FlowResult& flow, const soc::SystemOptions& options, bool pinned,
                const std::function<void(soc::SystemSimulator&, std::vector<std::uint32_t>&)>&
                    program,
                std::uint64_t dumpAt, std::size_t words) {
    soc::SystemSimulator sim(flow.design, flow.programs, options);
    StepPin pin;
    if (pinned) {
        sim.engine().addProbe(pin);
    }
    std::vector<std::uint32_t> logged;
    program(sim, logged);
    HandRun run;
    try {
        run.text = format("cycles: %llu\n", static_cast<unsigned long long>(sim.run(2'000'000)));
    } catch (const Error& e) {
        run.text = std::string("error: ") + e.what() + "\n";
    }
    run.text += sim.report();
    for (std::size_t i = 0; i < sim.channelCount(); ++i) {
        const axi::StreamChannel& ch = sim.channel(i);
        run.text += format("  %s: pushed %llu popped %llu push-stalls %llu pop-stalls %llu "
                           "high-water %zu samples %llu avg-occupancy %.9f\n",
                           ch.name().c_str(), static_cast<unsigned long long>(ch.beatsPushed()),
                           static_cast<unsigned long long>(ch.beatsPopped()),
                           static_cast<unsigned long long>(ch.pushStalls()),
                           static_cast<unsigned long long>(ch.popStalls()), ch.highWater(),
                           static_cast<unsigned long long>(sim.monitor(i).samples()),
                           sim.monitor(i).averageOccupancy());
    }
    run.text += "logged:";
    for (const std::uint32_t value : logged) {
        run.text += format(" 0x%x", value);
    }
    run.text += "\nddr:";
    for (const std::uint32_t value : sim.memory().readBlock(dumpAt, words)) {
        run.text += format(" %u", value);
    }
    run.text += "\n" + sim.engine().snapshot().render() + "\n";
    for (const std::string& dma : sim.dmaNames()) {
        run.dmaTicks += sim.engine().realTicks(sim.dma(dma));
    }
    return run;
}

/// Arch1's histogram core fed by an MM2S programmed by hand, so the PS can
/// act while the transfer streams; `midTransfer` queues what it does then.
std::function<void(soc::SystemSimulator&, std::vector<std::uint32_t>&)> histogramProgram(
    const std::function<void(soc::SystemSimulator&, std::vector<std::uint32_t>&)>& midTransfer) {
    return [midTransfer](soc::SystemSimulator& sim, std::vector<std::uint32_t>& logged) {
        const soc::BlockDesign& design = fixture().archs[0].design;
        const soc::StreamConnection& in = socLink(design, "computeHistogram", "grayScaleImage");
        const soc::StreamConnection& out = socLink(design, "computeHistogram", "histogram");
        sim.ps().task("stage", 10, [](soc::Memory& mem) {
            for (std::int64_t i = 0; i < kPixels; ++i) {
                mem.writeWord(0x100 + static_cast<std::uint64_t>(i),
                              static_cast<std::uint32_t>(i * 37) & 0xFFU);
            }
        });
        sim.psArmReadDma(out.dmaInstance, out.dmaRoute, 0x8000, 256);
        const std::uint64_t base = sim.baseAddressOf(in.dmaInstance);
        sim.ps().writeReg(base + soc::dmareg::kMm2sAddr, 0x100);
        sim.ps().writeReg(base + soc::dmareg::kMm2sRoute, static_cast<std::uint32_t>(in.dmaRoute));
        sim.ps().writeReg(base + soc::dmareg::kMm2sLength, static_cast<std::uint32_t>(kPixels));
        midTransfer(sim, logged);
        sim.ps().pollEq(base + soc::dmareg::kMm2sStatus, soc::dmareg::kStatusIdle,
                        soc::dmareg::kStatusIdle);
        sim.psWaitReadDma(out.dmaInstance);
    };
}

TEST(BoardFastForward, PsTaskWritingAnOwedBufferMatchesPerCycleStepping) {
    // The task rewrites every third word of the buffer the MM2S streams:
    // words it has read, words a sleeping DMA owes reads of, and words to
    // come. Each must be read before or after the write as per-cycle
    // stepping reads it.
    const auto program = histogramProgram([](soc::SystemSimulator& sim,
                                             std::vector<std::uint32_t>& /*logged*/) {
        sim.ps().delay(700);
        sim.ps().task("scribble", 40, [](soc::Memory& mem) {
            for (std::int64_t w = 0; w < kPixels; w += 3) {
                mem.writeWord(0x100 + static_cast<std::uint64_t>(w),
                              static_cast<std::uint32_t>(w * 11 + 5) & 0xFFU);
            }
        });
    });
    const core::FlowResult& flow = fixture().archs[0];
    const HandRun fast = handRun(flow, {}, false, program, 0x8000, 256);
    const HandRun slow = handRun(flow, {}, true, program, 0x8000, 256);
    EXPECT_EQ(fast.text, slow.text);
    EXPECT_NE(fast.text.find("cycles: "), std::string::npos) << fast.text;
    EXPECT_LT(fast.dmaTicks * 8, static_cast<std::uint64_t>(kPixels)) << fast.dmaTicks;
}

TEST(BoardFastForward, PsRegisterReadsMidTransferMatchPerCycleStepping) {
    // A status-register poll on the read pointer, then two reads of the
    // pointer and the length left: each sees the transfer where per-cycle
    // stepping has it.
    const auto program = histogramProgram([](soc::SystemSimulator& sim,
                                             std::vector<std::uint32_t>& logged) {
        const std::string dma = socLink(fixture().archs[0].design, "computeHistogram",
                                        "grayScaleImage")
                                    .dmaInstance;
        const std::uint64_t base = sim.baseAddressOf(dma);
        sim.ps().pollEq(base + soc::dmareg::kMm2sAddr, 0x200, 0x200, 5);
        const auto peek = [&sim, &logged, dma](soc::Memory& /*mem*/) {
            logged.push_back(sim.dma(dma).readRegister(soc::dmareg::kMm2sAddr));
            logged.push_back(sim.dma(dma).readRegister(soc::dmareg::kMm2sLength));
        };
        sim.ps().task("peek", 3, peek);
        sim.ps().delay(333);
        sim.ps().task("peek", 3, peek);
    });
    const core::FlowResult& flow = fixture().archs[0];
    const HandRun fast = handRun(flow, {}, false, program, 0x8000, 256);
    const HandRun slow = handRun(flow, {}, true, program, 0x8000, 256);
    EXPECT_EQ(fast.text, slow.text);
    EXPECT_NE(fast.text.find("logged: 0x"), std::string::npos) << fast.text;
}

TEST(BoardFastForward, WedgeAfterOwedPopsMatchesPerCycleStepping) {
    // Arch4's first phase with an S2MM armed for 8 words more than the
    // gray stream carries, under the interrupt driver: the DMA's last
    // progress is a pop it owed while asleep, and the deadlock verdict and
    // every last-progress cycle must fall where per-cycle stepping puts them.
    const core::FlowResult& flow = fixture().archs[3];
    const auto program = [&flow](soc::SystemSimulator& sim,
                                 std::vector<std::uint32_t>& /*logged*/) {
        const soc::StreamConnection& in = socLink(flow.design, "grayScale", "imageIn");
        const soc::StreamConnection& seg = socLink(flow.design, "grayScale", "imageOutSEG");
        const std::vector<std::uint32_t> packed = fixture().scene.packedPixels();
        sim.ps().task("stage", 10,
                      [packed](soc::Memory& mem) { mem.writeBlock(0x1000, packed); });
        sim.psArmReadDma(seg.dmaInstance, seg.dmaRoute, 0x100000,
                         static_cast<std::uint32_t>(kPixels + 8));
        sim.psWriteDma(in.dmaInstance, in.dmaRoute, 0x1000, static_cast<std::uint32_t>(kPixels));
        sim.psWaitReadDma(seg.dmaInstance);
    };
    soc::SystemOptions options;
    options.useInterrupts = true;
    options.stallLimit = 3'000;
    const HandRun fast = handRun(flow, options, false, program, 0x100000 + kPixels - 4, 4);
    const HandRun slow = handRun(flow, options, true, program, 0x100000 + kPixels - 4, 4);
    EXPECT_EQ(fast.text, slow.text);
    EXPECT_NE(fast.text.find("deadlock: no progress for 3000 cycles"), std::string::npos)
        << fast.text;
    EXPECT_LT(fast.dmaTicks * 8, static_cast<std::uint64_t>(kPixels)) << fast.dmaTicks;
}

} // namespace
} // namespace socgen
