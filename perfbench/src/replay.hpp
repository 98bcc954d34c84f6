#pragma once

// HLS pass replay for the traced flow-cold run: the flow gives no
// per-pass timings, so after each op the benchmark calls the hls:: pass
// functions itself, in HlsEngine::synthesize's order and with the
// directives the flow used, and checks that the replay reproduces the
// flow's VHDL, Verilog and Program byte for byte — so the pass timings
// measure the work the flow did.

#include "bench.hpp"

#include "socgen/core/flow.hpp"

#include <cstddef>
#include <string>

namespace perfbench {

/// IR sizes summed over the kernels one replay synthesized.
struct ReplaySizes {
    std::size_t stmts = 0;   ///< statements of the transformed kernels
    std::size_t instrs = 0;  ///< compiled Program instructions
    std::size_t cells = 0;   ///< netlist cells
    std::size_t nets = 0;    ///< netlist nets
};

/// Replays HLS for every node of `flow.graph`, recording one span per
/// pass under an "hls.replay" root of `op`. Returns "" when every node's
/// replay is byte-equal to the flow's HlsResult, else the first difference.
[[nodiscard]] std::string replayHls(const socgen::core::FlowResult& flow,
                                    const socgen::hls::KernelLibrary& kernels,
                                    const socgen::core::FlowOptions& options, Tracer& tracer,
                                    std::uint64_t op, ReplaySizes& sizes);

} // namespace perfbench
