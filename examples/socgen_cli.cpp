// socgen_cli — command-line front end for the flow, the shape a
// downstream user drives the tool with:
//
//   socgen_cli --dsl design.tg [--out DIR] [--dma per-link] [--jobs N]
//              [--kernels quickstart|otsu|sobel] [--size N] [--report]
//
// Parses the textual DSL, runs the full flow against one of the built-in
// kernel libraries (standing in for the per-node C/C++ sources), writes
// every artifact, and prints the report.

#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu_project.hpp"
#include "socgen/socgen.hpp"

#include <cstdio>
#include <cstring>

using namespace socgen;

namespace {

void usage(const char* argv0) {
    std::printf(
        "usage: %s --dsl FILE [options]\n"
        "  --dsl FILE          textual DSL description (paper Listing 1 grammar)\n"
        "  --kernels NAME      builtin kernel library: quickstart | otsu | sobel\n"
        "                      (default: quickstart)\n"
        "  --size N            stream length / pixel count for the kernels (default "
        "1024)\n"
        "  --out DIR           write artifacts under DIR (default: socgen_out)\n"
        "  --dma POLICY        shared | per-link (default: shared)\n"
        "  --jobs N            parallel HLS jobs (default 1)\n"
        "  --no-synth          stop after integration\n"
        "  --report            print the Markdown flow report to stdout\n"
        "  --verbose           info-level logging of every flow step\n",
        argv0);
}

hls::KernelLibrary builtinKernels(const std::string& name, std::int64_t size) {
    hls::KernelLibrary lib;
    if (name == "quickstart") {
        lib.add(apps::makeAddKernel());
        lib.add(apps::makeMulKernel());
        lib.add(apps::makeGaussKernel(size));
        lib.add(apps::makeEdgeKernel(size));
    } else if (name == "otsu") {
        lib.add(apps::makeGrayScaleKernel(size));
        lib.add(apps::makeHistogramKernel(size));
        lib.add(apps::makeOtsuKernel(size));
        lib.add(apps::makeBinarizationKernel(size));
    } else if (name == "sobel") {
        // Square image of `size` pixels.
        std::int64_t side = 1;
        while (side * side < size) {
            ++side;
        }
        lib.add(apps::makeSobelKernel(side, side));
    } else {
        throw Error("unknown kernel library: " + name +
                    " (expected quickstart | otsu | sobel)");
    }
    return lib;
}

} // namespace

int main(int argc, char** argv) {
    std::string dslPath;
    std::string kernelsName = "quickstart";
    std::string outDir = "socgen_out";
    std::int64_t size = 1024;
    core::FlowOptions options;
    bool printReport = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--dsl") {
            dslPath = next();
        } else if (arg == "--kernels") {
            kernelsName = next();
        } else if (arg == "--size") {
            size = std::atoll(next());
        } else if (arg == "--out") {
            outDir = next();
        } else if (arg == "--dma") {
            const std::string policy = next();
            options.dmaPolicy = policy == "per-link" ? soc::DmaPolicy::DmaPerLink
                                                     : soc::DmaPolicy::SharedDma;
        } else if (arg == "--jobs") {
            options.jobs = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--no-synth") {
            options.runSynthesis = false;
        } else if (arg == "--report") {
            printReport = true;
        } else if (arg == "--verbose") {
            Logger::global().setLevel(LogLevel::Info);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (dslPath.empty()) {
        usage(argv[0]);
        return 2;
    }

    try {
        options.outputDir = outDir;
        if (kernelsName == "otsu") {
            options.kernelDirectives = apps::otsuKernelDirectives();
        }
        const hls::KernelLibrary kernels = builtinKernels(kernelsName, size);
        const core::FlowResult result = core::runDslFile(dslPath, kernels, options);

        if (printReport) {
            const std::string report =
                readTextFile(outDir + "/" + result.projectName + "/REPORT.md");
            std::printf("%s", report.c_str());
        } else {
            std::printf("project %s: %zu cores, %s, %.1f simulated tool-seconds\n",
                        result.projectName.c_str(), result.hlsResults.size(),
                        options.runSynthesis ? result.synthesis.total.str().c_str()
                                             : "synthesis skipped",
                        result.diagnostics.stageToolSeconds());
            std::printf("artifacts written to %s/%s/\n", outDir.c_str(),
                        result.projectName.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "socgen: %s\n", e.what());
        return 1;
    }
}
