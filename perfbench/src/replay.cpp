#include "replay.hpp"

#include "socgen/hls/codegen.hpp"
#include "socgen/hls/optimize.hpp"
#include "socgen/hls/serialize.hpp"
#include "socgen/hls/unroll.hpp"
#include "socgen/hls/verify.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"

namespace perfbench {

using namespace socgen;

namespace {

/// The directives Flow::run hands the engine for a single-kernel node:
/// the per-kernel override or the default, plus the DSL's interfaces.
hls::Directives nodeDirectives(const core::FlowOptions& options, const core::TgNode& node) {
    hls::Directives d = options.defaultDirectives;
    if (const auto it = options.kernelDirectives.find(node.name);
        it != options.kernelDirectives.end()) {
        d = it->second;
    }
    for (const auto& port : node.ports) {
        d.interfaces[port.name] = port.protocol;
    }
    return d;
}

/// The directives of one process of a network node: "node/process",
/// then "node", then the default; channel ends are AXI-Stream, exported
/// ports take the protocol the DSL declared.
hls::Directives processDirectives(const core::FlowOptions& options, const core::TgNode& node,
                                  const hls::ProcessNetwork& network,
                                  const std::string& process) {
    hls::Directives d = options.defaultDirectives;
    if (const auto scoped = options.kernelDirectives.find(node.name + "/" + process);
        scoped != options.kernelDirectives.end()) {
        d = scoped->second;
    } else if (const auto it = options.kernelDirectives.find(node.name);
               it != options.kernelDirectives.end()) {
        d = it->second;
    }
    for (const auto& c : network.channels()) {
        if (c.fromProcess == process) {
            d.interfaces[c.fromPort] = hls::InterfaceProtocol::AxiStream;
        }
        if (c.toProcess == process) {
            d.interfaces[c.toPort] = hls::InterfaceProtocol::AxiStream;
        }
    }
    for (const auto& b : network.bindings()) {
        if (b.process != process) {
            continue;
        }
        for (const auto& port : node.ports) {
            if (port.name == b.networkPort) {
                d.interfaces[b.processPort] = port.protocol;
            }
        }
    }
    return d;
}

class PassReplay {
public:
    PassReplay(Tracer& tracer, std::uint64_t op, Tracer::SpanId root, ReplaySizes& sizes)
        : tracer_(tracer), op_(op), root_(root), sizes_(sizes) {}

    template <typename Fn>
    void timed(const char* pass, Fn&& fn) {
        const TimePoint t0 = Clock::now();
        fn();
        tracer_.record(pass, op_, root_, t0, Clock::now());
    }

    /// HlsEngine::synthesize, one timed call per pass, same order.
    hls::HlsResult synthesize(const hls::Kernel& kernel, const hls::Directives& d) {
        timed("hls.verify", [&] { hls::verify(kernel); });
        hls::Kernel transformed(kernel.name());
        const hls::Kernel* source = &kernel;
        if (!d.unrollFactors.empty()) {
            timed("hls.unroll", [&] { transformed = hls::unrollLoops(*source, d.unrollFactors); });
            source = &transformed;
        }
        if (d.enableOptimizer) {
            timed("hls.optimize", [&] { transformed = hls::optimize(*source); });
            source = &transformed;
        }
        const hls::Kernel& k = *source;
        timed("hls.verify", [&] { hls::verify(k); });

        hls::HlsResult r;
        r.kernelName = k.name();
        timed("hls.schedule", [&] { r.schedule = hls::scheduleKernel(k, d, latency_); });
        timed("hls.bind", [&] { r.binding = hls::bindKernel(r.schedule, latency_); });
        timed("hls.rtlgen", [&] { r.netlist = hls::generateRtl(k, r.schedule, r.binding); });
        timed("rtl.emit_vhdl", [&] { r.vhdl = rtl::VhdlEmitter{}.emit(r.netlist); });
        timed("rtl.emit_verilog", [&] { r.verilog = rtl::VerilogEmitter{}.emit(r.netlist); });
        timed("hls.compile", [&] { r.program = hls::compileKernel(k, r.schedule); });
        timed("hls.price", [&] {
            r.resources = cost_.priceNetlist(r.netlist);
            for (const auto& port : kernel.ports()) {
                r.resources += hls::isStreamPort(port.kind) ? cost_.axiStreamPortCost(port.width)
                                                            : cost_.axiLitePortCost(port.width);
            }
            r.resources += cost_.coreOverhead();
        });
        sizes_.stmts += k.statementCount();
        sizes_.instrs += r.program.instrs.size();
        sizes_.cells += r.netlist.cells().size();
        sizes_.nets += r.netlist.nets().size();
        return r;
    }

private:
    Tracer& tracer_;
    std::uint64_t op_;
    Tracer::SpanId root_;
    ReplaySizes& sizes_;
    hls::LatencyModel latency_;
    hls::CostModel cost_;
};

std::string programBytes(const hls::Program& program) {
    hls::HlsResult holder;
    holder.program = program;
    return hls::encodeHlsResult(holder);
}

std::string compare(const std::string& node, const hls::HlsResult& replay,
                    const hls::HlsResult& flow) {
    if (replay.vhdl != flow.vhdl) {
        return "HLS replay of " + node + ": VHDL differs from the flow's";
    }
    if (replay.verilog != flow.verilog) {
        return "HLS replay of " + node + ": Verilog differs from the flow's";
    }
    if (programBytes(replay.program) != programBytes(flow.program)) {
        return "HLS replay of " + node + ": Program differs from the flow's";
    }
    if (!(replay.resources == flow.resources)) {
        return "HLS replay of " + node + ": resources differ from the flow's";
    }
    return {};
}

} // namespace

std::string replayHls(const core::FlowResult& flow, const hls::KernelLibrary& kernels,
                      const core::FlowOptions& options, Tracer& tracer, std::uint64_t op,
                      ReplaySizes& sizes) {
    const Tracer::SpanId root = tracer.open("hls.replay", op, Tracer::kNone, Clock::now());
    PassReplay replay(tracer, op, root, sizes);
    std::string mismatch;
    for (const core::TgNode& node : flow.graph.nodes()) {
        const hls::ProcessNetwork& network = kernels.network(node.name);
        hls::HlsResult result;
        if (network.trivial()) {
            result = replay.synthesize(network.processes().front().kernel,
                                       nodeDirectives(options, node));
        } else {
            std::vector<hls::HlsResult> parts;
            for (const hls::Process& p : network.processes()) {
                parts.push_back(replay.synthesize(
                    p.kernel, processDirectives(options, node, network, p.name)));
            }
            std::vector<const hls::HlsResult*> ptrs;
            for (const hls::HlsResult& part : parts) {
                ptrs.push_back(&part);
            }
            replay.timed("hls.assemble",
                         [&] { result = hls::HlsEngine{}.assembleNetwork(network, ptrs); });
        }
        if (mismatch.empty()) {
            mismatch = compare(node.name, result, flow.hlsResults.at(node.name));
        }
    }
    tracer.close(root, Clock::now());
    return mismatch;
}

} // namespace perfbench
