#include "projects.hpp"

#include "bench.hpp"

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/apps/otsu_project.hpp"
#include "socgen/common/error.hpp"
#include "socgen/hls/interpreter.hpp"

#include <deque>

namespace perfbench {

using namespace socgen;

std::string Variant::str() const {
    return "unroll=" + std::to_string(unroll) + ",opt=" + (optimizer ? "on" : "off") +
           ",mul=" + std::to_string(maxMulUnits);
}

std::vector<Variant> allVariants() {
    std::vector<Variant> variants;
    for (const int unroll : {1, 2, 4}) {
        for (const bool optimizer : {true, false}) {
            for (const int mul : {1, 2, 4}) {
                variants.push_back(Variant{unroll, optimizer, mul});
            }
        }
    }
    return variants;
}

std::string streamNodeDsl(const std::string& project, const std::string& node,
                          const std::string& inPort, const std::string& outPort) {
    return "object " + project + " extends App {\n  tg nodes;\n    tg node \"" + node +
           "\" is \"" + inPort + "\" is \"" + outPort +
           "\" end;\n  tg end_nodes;\n  tg edges;\n    tg link 'soc to (\"" + node + "\",\"" +
           inPort + "\") end;\n    tg link (\"" + node + "\",\"" + outPort +
           "\") to 'soc end;\n  tg end_edges;\n}\n";
}

namespace {

constexpr const char* kQuickstartDsl = R"(object quickstart extends App {
  tg nodes;
    tg node "MUL" i "A" i "B" i "return" end;
    tg node "ADD" i "A" i "B" i "return" end;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
    tg connect "MUL";
    tg connect "ADD";
  tg end_edges;
}
)";

constexpr const char* kSharedPipeDsl = R"(object sharedPipe extends App {
  tg nodes;
    tg node "MUL" i "A" i "B" i "return" end;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
    tg connect "MUL";
  tg end_edges;
}
)";

std::vector<Project> otsuArchProjects() {
    std::vector<Project> projects;
    const core::Htg htg = apps::makeOtsuHtg();
    for (int arch = 1; arch <= 4; ++arch) {
        const std::string name = "Arch" + std::to_string(arch);
        projects.push_back(
            Project{name, ProjectKind::OtsuArch,
                    core::lowerToTaskGraph(htg, apps::otsuArchPartition(arch)).renderDsl(name)});
    }
    return projects;
}

void applyVariant(hls::Directives& d, const Variant& v) {
    d.enableOptimizer = v.optimizer;
    d.maxMulUnits = v.maxMulUnits;
    if (v.unroll > 1) {
        d.unrollFactors["i"] = v.unroll;    // every app kernel's main induction variable
        d.unrollFactors["idx"] = v.unroll;  // SOBEL's
    }
}

} // namespace

std::vector<Project> flowColdProjects() {
    std::vector<Project> projects = otsuArchProjects();
    projects.push_back(Project{"quickstart", ProjectKind::Plain, kQuickstartDsl});
    projects.push_back(
        Project{"sobel", ProjectKind::Plain, streamNodeDsl("sobel", "SOBEL", "in", "out")});
    projects.push_back(Project{"otsuDf", ProjectKind::OtsuDataflow,
                               streamNodeDsl("otsuDf", "otsuDataflow", "imageIn",
                                             "segmentedGrayImage")});
    projects.push_back(Project{"triStage", ProjectKind::Plain,
                               streamNodeDsl("triStage", "triStagePipe", "din", "dout")});
    return projects;
}

std::vector<Project> serviceCatalog() {
    std::vector<Project> catalog = otsuArchProjects();
    catalog.push_back(Project{"quickstart", ProjectKind::Plain, kQuickstartDsl});
    catalog.push_back(Project{"sharedPipe", ProjectKind::Plain, kSharedPipeDsl});
    return catalog;
}

hls::KernelLibrary makeProjectLibrary() {
    constexpr std::int64_t pixels = static_cast<std::int64_t>(kFlowImageSide) * kFlowImageSide;
    hls::KernelLibrary lib;
    lib.add(apps::makeGrayScaleKernel(pixels));
    lib.add(apps::makeHistogramKernel(pixels));
    lib.add(apps::makeOtsuKernel(pixels));
    lib.add(apps::makeBinarizationKernel(pixels));
    lib.add(apps::makeAddKernel());
    lib.add(apps::makeMulKernel());
    lib.add(apps::makeGaussKernel(kStreamSamples));
    lib.add(apps::makeEdgeKernel(kStreamSamples));
    lib.add(apps::makeSobelKernel(kSobelSide, kSobelSide));
    constexpr std::int64_t dfPixels = static_cast<std::int64_t>(kDataflowSide) * kDataflowSide;
    lib.add(apps::makeOtsuDataflowNetwork(dfPixels, static_cast<std::uint32_t>(dfPixels)));
    lib.add(apps::makeStreamPipelineNetwork(kStreamSamples));
    return lib;
}

core::FlowOptions flowOptionsFor(const Project& project, const Variant* variant) {
    core::FlowOptions options;
    if (project.kind == ProjectKind::OtsuArch) {
        options = apps::otsuFlowOptions();
    } else if (project.kind == ProjectKind::OtsuDataflow) {
        for (const auto& [process, directives] : apps::otsuDataflowDirectives()) {
            options.kernelDirectives["otsuDataflow/" + process] = directives;
        }
    }
    if (variant != nullptr) {
        applyVariant(options.defaultDirectives, *variant);
        for (auto& [name, directives] : options.kernelDirectives) {
            applyVariant(directives, *variant);
        }
    }
    return options;
}

GeneratedSpec makeGeneratedSpec(std::string name, std::uint64_t seed) {
    Rng rng(seed);
    GeneratedSpec spec{std::move(name), {}, {}};
    const std::size_t steps = 3 + rng.below(6);
    for (std::size_t s = 0; s < steps; ++s) {
        spec.mul.push_back(static_cast<std::uint32_t>(3 + rng.below(250)));
        spec.add.push_back(static_cast<std::uint32_t>(rng.below(1000)));
    }
    return spec;
}

hls::Kernel makeGeneratedKernel(const GeneratedSpec& spec) {
    using namespace hls;
    KernelBuilder kb(spec.name);
    const PortId in = kb.streamIn("in", 8);
    const PortId out = kb.streamOut("out", 8);
    const VarId i = kb.var("i", 32);
    const VarId acc = kb.var("acc", 32);
    kb.forLoop(i, kb.c(kStreamSamples));
    kb.assign(acc, kb.read(in));
    for (std::size_t s = 0; s < spec.mul.size(); ++s) {
        kb.assign(acc, kb.add(kb.mul(kb.v(acc), kb.c(spec.mul[s])), kb.c(spec.add[s])));
    }
    kb.write(out, kb.v(acc));
    kb.endLoop();
    return kb.build();
}

// -----------------------------------------------------------------------------
// Oracles

namespace {

using Words = std::vector<std::uint64_t>;

/// Vector-backed KernelIo: stream inputs are queued up front, outputs
/// collected without back-pressure.
class VectorIo : public hls::KernelIo {
public:
    explicit VectorIo(std::size_t ports)
        : inputs_(ports), outputs_(ports), args_(ports, 0), results_(ports, 0) {}

    std::uint64_t argValue(hls::PortId port) override { return args_.at(port); }
    void setResult(hls::PortId port, std::uint64_t value) override { results_.at(port) = value; }
    bool streamRead(hls::PortId port, std::uint64_t& value) override {
        auto& q = inputs_.at(port);
        if (q.empty()) {
            return false;
        }
        value = q.front();
        q.pop_front();
        return true;
    }
    bool streamWrite(hls::PortId port, std::uint64_t value) override {
        outputs_.at(port).push_back(value);
        return true;
    }

    std::vector<std::deque<std::uint64_t>> inputs_;
    std::vector<Words> outputs_;
    std::vector<std::uint64_t> args_;
    std::vector<std::uint64_t> results_;
};

hls::PortId portId(const hls::Program& program, const std::string& name) {
    for (hls::PortId id = 0; id < program.ports.size(); ++id) {
        if (program.ports[id].name == name) {
            return id;
        }
    }
    throw Error("oracle: program " + program.kernelName + " has no port " + name);
}

std::uint64_t widthMask(unsigned width) {
    return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

/// One VM run: feeds `streams` and `args`, runs to completion, returns
/// every output stream and scalar result (masked to the port width).
struct VmRun {
    std::map<std::string, Words> streams;
    std::map<std::string, std::uint64_t> results;
};

VmRun runVm(const hls::Program& program, const std::map<std::string, Words>& streams,
            const std::map<std::string, std::uint64_t>& args, OracleResult& acc) {
    VectorIo io(program.ports.size());
    for (const auto& [name, words] : streams) {
        auto& q = io.inputs_[portId(program, name)];
        q.assign(words.begin(), words.end());
    }
    for (const auto& [name, value] : args) {
        io.args_[portId(program, name)] = value;
    }
    hls::KernelVm vm(program, io);
    const TimePoint t0 = Clock::now();
    vm.start();
    while (!vm.finished()) {
        vm.tick();
        if (vm.cycles() > 50'000'000) {
            throw Error("oracle: " + program.kernelName + " did not finish in 50M cycles");
        }
    }
    acc.hostSeconds += std::chrono::duration<double>(Clock::now() - t0).count();
    acc.cycles += vm.cycles();
    VmRun run;
    for (hls::PortId id = 0; id < program.ports.size(); ++id) {
        const hls::KernelPort& port = program.ports[id];
        const std::uint64_t mask = widthMask(port.width);
        if (port.kind == hls::PortKind::StreamOut) {
            Words out = io.outputs_[id];
            for (auto& w : out) {
                w &= mask;
            }
            run.streams[port.name] = std::move(out);
        } else if (port.kind == hls::PortKind::ScalarOut) {
            run.results[port.name] = io.results_[id] & mask;
        }
    }
    return run;
}

template <typename T>
Words words(const std::vector<T>& values) {
    return Words(values.begin(), values.end());
}

void expectEqual(const std::string& what, const Words& got, const Words& want,
                 std::string& mismatch) {
    if (!mismatch.empty() || got == want) {
        return;
    }
    std::size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) {
        ++i;
    }
    mismatch = what + ": " + std::to_string(got.size()) + " words, expected " +
               std::to_string(want.size()) + "; first difference at word " + std::to_string(i);
}

/// The seeded inputs and reference outputs every oracle draws from.
struct References {
    apps::RgbImage scene;
    apps::GrayImage gray;
    Words packed;
    Words hist;
    std::uint32_t threshold = 0;
    Words binarized;
    Words bytes;   ///< kStreamSamples random bytes
    Words u32s;    ///< kStreamSamples random 32-bit words
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    apps::GrayImage sobelIn;
    apps::RgbImage dataflowScene;

    explicit References(std::uint64_t seed) {
        scene = apps::makeSyntheticScene(kFlowImageSide, kFlowImageSide, seed);
        gray = apps::grayScaleRef(scene);
        packed = words(scene.packedPixels());
        const auto histogram = apps::histogramRef(gray);
        hist.assign(histogram.begin(), histogram.end());
        threshold = apps::otsuThresholdRef(histogram, gray.pixelCount());
        binarized = words(apps::binarizeRef(gray, threshold).pixels());
        Rng rng(subSeed(seed, 1));
        for (std::int64_t i = 0; i < kStreamSamples; ++i) {
            bytes.push_back(rng.below(256));
            u32s.push_back(rng.next() & 0xffffffffULL);
        }
        a = rng.below(1u << 16);
        b = rng.below(1u << 16);
        sobelIn = apps::makeSyntheticGrayScene(kSobelSide, kSobelSide, subSeed(seed, 2));
        dataflowScene = apps::makeSyntheticScene(kDataflowSide, kDataflowSide, subSeed(seed, 3));
    }
};

Words generatedRef(const GeneratedSpec& spec, const Words& input) {
    Words out;
    for (const std::uint64_t x : input) {
        std::uint64_t acc = x & 0xff;
        for (std::size_t s = 0; s < spec.mul.size(); ++s) {
            acc = (acc * spec.mul[s] + spec.add[s]) & 0xffffffffULL;
        }
        out.push_back(acc & 0xff);
    }
    return out;
}

} // namespace

OracleResult checkPrograms(const std::map<std::string, hls::Program>& programs,
                           std::uint64_t inputSeed,
                           const std::map<std::string, GeneratedSpec>& generated) {
    const References ref(inputSeed);
    OracleResult result;
    std::string& bad = result.mismatch;
    const Words gray = words(ref.gray.pixels());
    for (const auto& [node, program] : programs) {
        if (node == "grayScale") {
            VmRun r = runVm(program, {{"imageIn", ref.packed}}, {}, result);
            expectEqual("grayScale.imageOutCH", r.streams["imageOutCH"], gray, bad);
            expectEqual("grayScale.imageOutSEG", r.streams["imageOutSEG"], gray, bad);
        } else if (node == "computeHistogram") {
            VmRun r = runVm(program, {{"grayScaleImage", gray}}, {}, result);
            expectEqual("computeHistogram.histogram", r.streams["histogram"], ref.hist, bad);
        } else if (node == "halfProbability") {
            VmRun r = runVm(program, {{"histogram", ref.hist}}, {}, result);
            expectEqual("halfProbability.probability", r.streams["probability"],
                        Words{ref.threshold}, bad);
        } else if (node == "segment") {
            VmRun r = runVm(program,
                            {{"grayScaleImage", gray}, {"otsuThreshold", Words{ref.threshold}}},
                            {}, result);
            expectEqual("segment.segmentedGrayImage", r.streams["segmentedGrayImage"],
                        ref.binarized, bad);
        } else if (node == "ADD" || node == "MUL") {
            VmRun r = runVm(program, {}, {{"A", ref.a}, {"B", ref.b}}, result);
            const std::uint64_t want =
                (node == "ADD" ? ref.a + ref.b : ref.a * ref.b) &
                widthMask(program.ports[portId(program, "return")].width);
            expectEqual(node + ".return", Words{r.results["return"]}, Words{want}, bad);
        } else if (node == "GAUSS" || node == "EDGE") {
            const std::vector<std::uint8_t> in(ref.bytes.begin(), ref.bytes.end());
            VmRun r = runVm(program, {{"in", ref.bytes}}, {}, result);
            expectEqual(node + ".out", r.streams["out"],
                        words(node == "GAUSS" ? apps::gaussRef(in) : apps::edgeRef(in)), bad);
        } else if (node == "SOBEL") {
            VmRun r = runVm(program, {{"in", words(ref.sobelIn.pixels())}}, {}, result);
            expectEqual("SOBEL.out", r.streams["out"],
                        words(apps::sobelRef(ref.sobelIn).pixels()), bad);
        } else if (node == "otsuDataflow") {
            VmRun r = runVm(program, {{"imageIn", words(ref.dataflowScene.packedPixels())}}, {},
                            result);
            expectEqual("otsuDataflow.segmentedGrayImage", r.streams["segmentedGrayImage"],
                        words(apps::otsuFilterRef(ref.dataflowScene).pixels()), bad);
        } else if (node == "triStagePipe") {
            std::vector<std::uint32_t> in(ref.u32s.begin(), ref.u32s.end());
            VmRun r = runVm(program, {{"din", ref.u32s}}, {}, result);
            expectEqual("triStagePipe.dout", r.streams["dout"], words(apps::triStageRef(in)),
                        bad);
        } else if (const auto it = generated.find(node); it != generated.end()) {
            VmRun r = runVm(program, {{"in", ref.bytes}}, {}, result);
            expectEqual(node + ".out", r.streams["out"], generatedRef(it->second, ref.bytes),
                        bad);
        } else {
            bad = "no oracle for node " + node;
        }
    }
    return result;
}

} // namespace perfbench
