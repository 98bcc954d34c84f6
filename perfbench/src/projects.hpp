#pragma once

// The projects the workloads compile, the directive variants flow-cold
// draws for them, and the output oracles: each compiled hls::Program is
// run on hls::KernelVm with seeded inputs and compared against the
// software references in apps/, which share no code with the flow.

#include "socgen/core/flow.hpp"
#include "socgen/hls/bytecode.hpp"
#include "socgen/hls/network.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

namespace hls = socgen::hls;

/// Otsu image side in flow-cold and service-mix (otsu-board runs 128x128).
inline constexpr unsigned kFlowImageSide = 64;
/// Stream length of GAUSS/EDGE, the tri-stage pipeline and generated kernels.
inline constexpr std::int64_t kStreamSamples = 256;
inline constexpr unsigned kSobelSide = 32;
/// Image side of the Otsu dataflow network: its gray->segment FIFO holds
/// the whole image, and at 64x64 that FIFO alone overflows the device.
inline constexpr unsigned kDataflowSide = 16;

/// Which directive set a project's flow starts from.
enum class ProjectKind {
    Plain,         ///< default directives
    OtsuArch,      ///< apps::otsuFlowOptions()
    OtsuDataflow,  ///< apps::otsuDataflowDirectives() per process
};

struct Project {
    std::string name;  ///< DSL project name
    ProjectKind kind = ProjectKind::Plain;
    std::string dsl;   ///< the project's DSL text
};

/// One seeded directive variant of a flow-cold op: the unroll factor of
/// every constant-bound loop, the IR optimizer, and the DSP budget.
struct Variant {
    int unroll = 1;
    bool optimizer = true;
    int maxMulUnits = 2;

    [[nodiscard]] std::string str() const;
};

/// Every variant flow-cold draws from (all accepted by every kernel).
[[nodiscard]] std::vector<Variant> allVariants();

/// Otsu Arch1-4, quickstart, Sobel, the Otsu 4-process dataflow network
/// and the tri-stage stream pipeline.
[[nodiscard]] std::vector<Project> flowColdProjects();
/// Otsu Arch1-4, quickstart and the MUL/GAUSS/EDGE pipeline.
[[nodiscard]] std::vector<Project> serviceCatalog();

/// A kernel library holding every kernel the projects above name.
[[nodiscard]] hls::KernelLibrary makeProjectLibrary();

/// Flow options of a project under a variant (nullptr: the project's
/// own directives, unmodified).
[[nodiscard]] socgen::core::FlowOptions flowOptionsFor(const Project& project,
                                                       const Variant* variant);

/// A generated stream kernel: out[i] = f(in[i]) with a seeded chain of
/// multiply-adds, so every one is distinct work for the HLS engine.
struct GeneratedSpec {
    std::string name;
    std::vector<std::uint32_t> mul;
    std::vector<std::uint32_t> add;
};
[[nodiscard]] GeneratedSpec makeGeneratedSpec(std::string name, std::uint64_t seed);
[[nodiscard]] hls::Kernel makeGeneratedKernel(const GeneratedSpec& spec);
/// DSL of a project holding one stream node wired 'soc -> node -> 'soc.
[[nodiscard]] std::string streamNodeDsl(const std::string& project, const std::string& node,
                                        const std::string& inPort, const std::string& outPort);

/// Result of running every program of a project on the kernel VM.
struct OracleResult {
    std::uint64_t cycles = 0;   ///< summed VM cycles over the programs
    double hostSeconds = 0.0;   ///< host time inside the VM tick loops
    std::string mismatch;       ///< first wrong output ("" when all match)
};

/// Runs each program (keyed by node name) with inputs drawn from
/// `inputSeed` and checks its outputs against the apps/ references.
/// `generated` supplies the specs of generated-kernel nodes.
[[nodiscard]] OracleResult checkPrograms(
    const std::map<std::string, hls::Program>& programs, std::uint64_t inputSeed,
    const std::map<std::string, GeneratedSpec>& generated = {});

} // namespace perfbench
