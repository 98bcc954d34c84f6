#include "socgen/core/report.hpp"

#include "socgen/common/strings.hpp"

#include <sstream>

namespace socgen::core {

std::string renderFlowReport(const FlowResult& result,
                             const std::vector<FlowDiagnostics::StageOutcome>& stages) {
    std::ostringstream out;
    out << "# Flow report — " << result.projectName << "\n\n";

    out << "## Task graph\n\n";
    out << "Nodes: " << result.graph.nodes().size()
        << ", stream links: " << result.graph.links().size()
        << ", AXI-Lite attachments: " << result.graph.connects().size() << "\n\n";
    out << "```\n" << result.dslText << "```\n\n";

    out << "## Hardware cores\n\n";
    out << "| core | latency (cycles) | worst II | LUT | FF | RAMB18 | DSP | HLS s |\n";
    out << "|------|-----------------:|---------:|----:|---:|-------:|----:|------:|\n";
    for (const auto& [name, hlsResult] : result.hlsResults) {
        std::int64_t worstIi = 0;
        std::int64_t cycles = 0;
        for (const auto& loop : hlsResult.schedule.loops) {
            worstIi = std::max(worstIi, loop.ii);
            cycles += loop.totalCycles;
        }
        const auto& r = hlsResult.resources;
        out << format("| %s | %lld | %lld | %lld | %lld | %lld | %lld | %.1f |\n",
                      name.c_str(), static_cast<long long>(cycles),
                      static_cast<long long>(worstIi), static_cast<long long>(r.lut),
                      static_cast<long long>(r.ff), static_cast<long long>(r.bram18),
                      static_cast<long long>(r.dsp), hlsResult.toolSeconds);
    }
    out << '\n';

    if (!result.synthesis.perInstance.empty()) {
        out << "## Synthesis\n\n```\n" << result.synthesis.utilisationReport()
            << "```\n\n";
    }

    out << "## Generation timeline\n\n";
    out << "| stage | simulated tool s | source |\n|-------|----------------:|--------|\n";
    double totalToolSeconds = 0.0;
    for (const auto& s : stages) {
        out << format("| %s | %.1f | %s |\n", s.stage.c_str(), s.toolSeconds,
                      s.source.c_str());
        totalToolSeconds += s.toolSeconds;
    }
    out << format("| **total** | **%.1f** | |\n\n", totalToolSeconds);

    out << "## Artifacts\n\n";
    out << "- `" << result.projectName << ".tg` — DSL description ("
        << countLines(result.dslText) << " lines)\n";
    out << "- `" << result.projectName << ".tcl` — Vivado project script ("
        << countLines(result.tclText) << " lines)\n";
    for (const auto& [name, hlsResult] : result.hlsResults) {
        out << "- `hls/" << name << ".vhd`, `hls/" << name << ".v` — generated RTL ("
            << hlsResult.netlist.cells().size() << " cells)\n";
    }
    if (!result.bitstream.configRecords.empty()) {
        out << "- `" << result.projectName << ".bit` — bitstream ("
            << result.bitstream.serialize().size() << " bytes)\n";
        out << "- `boot.bin` — boot image (" << result.bootImage.partitions.size()
            << " partitions)\n";
    }
    if (!result.deviceTree.empty()) {
        out << "- `devicetree.dts`, `sw/" << result.projectName << "_api.{h,c}` — "
            << "software artifacts\n";
    }
    return out.str();
}

} // namespace socgen::core
