#include "socgen/hls/engine.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/hls/codegen.hpp"
#include "socgen/hls/optimize.hpp"
#include "socgen/hls/unroll.hpp"
#include "socgen/hls/verify.hpp"
#include "socgen/rtl/compose.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"

#include <sstream>

namespace socgen::hls {

HlsResult HlsEngine::synthesize(const Kernel& kernel, const Directives& directives) const {
    Logger::global().info("hls: synthesizing kernel " + kernel.name());
    verify(kernel);

    // Front-end optimisation (constant folding, algebraic identities,
    // dead-code elimination) before scheduling, as a real HLS tool does.
    OptStats optStats;
    UnrollStats unrollStats;
    Kernel transformed(kernel.name());
    const Kernel* source = &kernel;
    if (!directives.unrollFactors.empty()) {
        transformed = unrollLoops(*source, directives.unrollFactors, &unrollStats);
        source = &transformed;
    }
    if (directives.enableOptimizer) {
        transformed = optimize(*source, &optStats);
        source = &transformed;
    }
    const Kernel& k = *source;
    verify(k);

    HlsResult result;
    result.kernelName = k.name();
    result.schedule = scheduleKernel(k, directives, latency_);
    result.binding = bindKernel(result.schedule, latency_);
    result.netlist = generateRtl(k, result.schedule, result.binding);
    result.vhdl = rtl::VhdlEmitter{}.emit(result.netlist);
    result.verilog = rtl::VerilogEmitter{}.emit(result.netlist);
    result.directiveText = directives.render(k.name());
    result.program = compileKernel(k, result.schedule);

    // Core resources: datapath/control netlist plus interface logic for
    // each port, plus fixed wrapper overhead.
    result.resources = cost_.priceNetlist(result.netlist);
    for (const auto& port : kernel.ports()) {
        if (isStreamPort(port.kind)) {
            result.resources += cost_.axiStreamPortCost(port.width);
        } else {
            result.resources += cost_.axiLitePortCost(port.width);
        }
    }
    result.resources += cost_.coreOverhead();

    std::ostringstream report;
    report << result.schedule.report(k);
    if (!directives.unrollFactors.empty()) {
        report << format("unroll: %zu loops unrolled, %zu copies, %zu epilogue iters\n",
                         unrollStats.loopsUnrolled, unrollStats.copiesEmitted,
                         unrollStats.epilogueIterations);
    }
    if (directives.enableOptimizer) {
        report << format(
            "optimizer: %zu folded, %zu simplified, %zu strength-reduced, "
            "%zu removed\n",
            optStats.foldedConstants, optStats.simplifiedAlgebra,
            optStats.strengthReduced, optStats.removedStatements);
    }
    report << format("functional units: %d mul, %d div\n", result.binding.mulUnits,
                     result.binding.divUnits);
    report << format("netlist: %zu cells, %zu nets\n", result.netlist.cells().size(),
                     result.netlist.nets().size());
    report << "resources (incl. interfaces): " << result.resources.str() << '\n';
    result.reportText = report.str();

    // Deterministic simulated Vivado HLS runtime: parsing + per-statement
    // scheduling effort + per-cell RTL elaboration.
    result.toolSeconds = 12.0 + 1.4 * static_cast<double>(k.statementCount()) +
                         0.035 * static_cast<double>(result.netlist.cells().size());

    Logger::global().info(format("hls: %s done (%.1f tool-seconds, %s)",
                                 k.name().c_str(), result.toolSeconds,
                                 result.resources.str().c_str()));
    return result;
}

namespace {

/// Port id of `name` in a compiled program's signature table.
PortId programPortId(const Program& program, const std::string& name) {
    for (PortId id = 0; id < program.ports.size(); ++id) {
        if (program.ports[id].name == name) {
            return id;
        }
    }
    throw HlsError("network assembly: process program '" + program.kernelName +
                   "' has no port '" + name + "'");
}

} // namespace

HlsResult HlsEngine::assembleNetwork(
    const ProcessNetwork& network,
    const std::vector<const HlsResult*>& processResults) const {
    network.verify();
    require(processResults.size() == network.processes().size(),
            "network assembly: one result per process required");
    for (const HlsResult* r : processResults) {
        require(r != nullptr, "network assembly: null process result");
    }

    // The trivial network is the legacy single-kernel node: its process
    // result IS the node result, byte for byte.
    if (network.trivial()) {
        return *processResults[0];
    }

    const auto& processes = network.processes();
    const auto& channels = network.channels();

    // --- dataflow wrapper netlist -----------------------------------------
    // Conventions match the per-kernel code generator exactly (ap_start /
    // ap_done, <port>_tdata/_tvalid/_tready triplets), so the SoC wrapper
    // hosts a network core without knowing it is one.
    rtl::Netlist wrapper(sanitizeIdentifier(network.name()));
    const rtl::NetId apStart = wrapper.addNet("ap_start", 1);
    wrapper.addPort("ap_start", rtl::PortDir::In, 1, apStart);

    // One FIFO instance per channel; flattened first so its face nets
    // exist for the process bindings below.
    hls::ResourceEstimate fifoResources;
    std::vector<std::map<std::string, rtl::NetId>> fifoNets;
    fifoNets.reserve(channels.size());
    for (const NetworkChannel& c : channels) {
        const rtl::Netlist fifo =
            rtl::makeFifo("fifo_" + sanitizeIdentifier(c.name), c.width, c.depth,
                          c.initialTokens);
        fifoResources += cost_.priceNetlist(fifo);
        fifoNets.push_back(
            flattenInto(wrapper, fifo, "fifo_" + sanitizeIdentifier(c.name) + "_"));
    }

    // Flatten each process netlist, wiring its channel-side stream ports
    // onto the FIFO faces and fanning ap_start out to every process.
    std::vector<std::map<std::string, rtl::NetId>> processNets;
    processNets.reserve(processes.size());
    for (std::size_t i = 0; i < processes.size(); ++i) {
        const Process& p = processes[i];
        std::map<std::string, rtl::NetId> bind;
        bind["ap_start"] = apStart;
        for (std::size_t c = 0; c < channels.size(); ++c) {
            const NetworkChannel& ch = channels[c];
            if (ch.fromProcess == p.name) {
                const std::string base = sanitizeIdentifier(ch.fromPort);
                bind[base + "_tdata"] = fifoNets[c].at("in_tdata");
                bind[base + "_tvalid"] = fifoNets[c].at("in_tvalid");
                bind[base + "_tready"] = fifoNets[c].at("in_tready");
            }
            if (ch.toProcess == p.name) {
                const std::string base = sanitizeIdentifier(ch.toPort);
                bind[base + "_tdata"] = fifoNets[c].at("out_tdata");
                bind[base + "_tvalid"] = fifoNets[c].at("out_tvalid");
                bind[base + "_tready"] = fifoNets[c].at("out_tready");
            }
        }
        processNets.push_back(flattenInto(wrapper, processResults[i]->netlist,
                                          sanitizeIdentifier(p.name) + "_", bind));
    }

    // External ports, in binding order, under their network-level names.
    for (const NetworkBinding& b : network.bindings()) {
        const std::size_t pi = network.processIndex(b.process);
        const Process& p = processes[pi];
        const KernelPort& port = p.kernel.port(p.kernel.portId(b.processPort));
        const std::string inner = sanitizeIdentifier(b.processPort);
        const std::string outer = sanitizeIdentifier(b.networkPort);
        const auto net = [&](const std::string& suffix) {
            return processNets[pi].at(inner + suffix);
        };
        switch (port.kind) {
        case PortKind::StreamIn:
            wrapper.addPort(outer + "_tdata", rtl::PortDir::In, port.width, net("_tdata"));
            wrapper.addPort(outer + "_tvalid", rtl::PortDir::In, 1, net("_tvalid"));
            wrapper.addPort(outer + "_tready", rtl::PortDir::Out, 1, net("_tready"));
            break;
        case PortKind::StreamOut:
            wrapper.addPort(outer + "_tready", rtl::PortDir::In, 1, net("_tready"));
            wrapper.addPort(outer + "_tdata", rtl::PortDir::Out, port.width, net("_tdata"));
            wrapper.addPort(outer + "_tvalid", rtl::PortDir::Out, 1, net("_tvalid"));
            break;
        case PortKind::ScalarIn:
            wrapper.addPort(outer, rtl::PortDir::In, port.width, processNets[pi].at(inner));
            break;
        case PortKind::ScalarOut:
            wrapper.addPort(outer, rtl::PortDir::Out, port.width, processNets[pi].at(inner));
            break;
        }
    }

    // ap_done = AND of every process's done.
    rtl::NetId done = processNets[0].at("ap_done");
    for (std::size_t i = 1; i < processes.size(); ++i) {
        const rtl::NetId next = wrapper.addNet(concat("done_and_", i), 1);
        wrapper.addCell(concat("done_and_", i), rtl::CellKind::And, 1,
                        {done, processNets[i].at("ap_done")}, {next});
        done = next;
    }
    wrapper.addPort("ap_done", rtl::PortDir::Out, 1, done);
    wrapper.check();

    // --- fused executable model -------------------------------------------
    Program program;
    program.kernelName = network.name();
    program.ports = network.externalPorts();
    program.instrs.push_back(Instr{});  // lone Halt; network mode never runs it
    for (std::size_t i = 0; i < processes.size(); ++i) {
        program.processNames.push_back(processes[i].name);
        program.processPrograms.push_back(processResults[i]->program);
    }
    for (const NetworkChannel& c : channels) {
        ProgramChannel pc;
        pc.name = c.name;
        pc.fromProcess = static_cast<std::uint32_t>(network.processIndex(c.fromProcess));
        pc.fromPort = programPortId(program.processPrograms[pc.fromProcess], c.fromPort);
        pc.toProcess = static_cast<std::uint32_t>(network.processIndex(c.toProcess));
        pc.toPort = programPortId(program.processPrograms[pc.toProcess], c.toPort);
        pc.width = c.width;
        pc.depth = c.depth;
        pc.initialTokens = c.initialTokens;
        program.channels.push_back(std::move(pc));
    }
    for (PortId ext = 0; ext < network.bindings().size(); ++ext) {
        const NetworkBinding& b = network.bindings()[ext];
        ProgramBinding pb;
        pb.networkPort = ext;
        pb.process = static_cast<std::uint32_t>(network.processIndex(b.process));
        pb.processPort = programPortId(program.processPrograms[pb.process], b.processPort);
        program.bindings.push_back(pb);
    }

    // --- result ------------------------------------------------------------
    HlsResult result;
    result.kernelName = network.name();
    result.netlist = std::move(wrapper);
    result.vhdl = rtl::VhdlEmitter{}.emit(result.netlist);
    result.verilog = rtl::VerilogEmitter{}.emit(result.netlist);
    result.program = std::move(program);
    for (const HlsResult* r : processResults) {
        result.resources += r->resources;
    }
    result.resources += fifoResources;

    std::ostringstream report;
    report << format("process network %s: %zu processes, %zu channels\n",
                     network.name().c_str(), processes.size(), channels.size());
    for (std::size_t i = 0; i < processes.size(); ++i) {
        report << format("  process %-16s kernel %-18s %.1f tool-s, %s\n",
                         processes[i].name.c_str(),
                         processes[i].kernel.name().c_str(),
                         processResults[i]->toolSeconds,
                         processResults[i]->resources.str().c_str());
    }
    for (const NetworkChannel& c : channels) {
        report << format("  channel %-16s %s.%s -> %s.%s (%u bits, depth %u)\n",
                         c.name.c_str(), c.fromProcess.c_str(), c.fromPort.c_str(),
                         c.toProcess.c_str(), c.toPort.c_str(), c.width, c.depth);
    }
    report << format("dataflow wrapper: %zu cells, %zu nets\n",
                     result.netlist.cells().size(), result.netlist.nets().size());
    report << "resources (incl. FIFOs): " << result.resources.str() << '\n';
    result.reportText = report.str();

    std::ostringstream directiveText;
    for (std::size_t i = 0; i < processes.size(); ++i) {
        directiveText << "## process " << processes[i].name << '\n'
                      << processResults[i]->directiveText;
    }
    result.directiveText = directiveText.str();

    // Network assembly is pure structural glue — deterministic and cheap
    // next to per-process synthesis (which is what gets cached).
    result.toolSeconds = 2.0 + 0.6 * static_cast<double>(processes.size()) +
                         0.2 * static_cast<double>(channels.size()) +
                         0.01 * static_cast<double>(result.netlist.cells().size());
    return result;
}

HlsResult HlsEngine::synthesize(const ProcessNetwork& network,
                                const std::map<std::string, Directives>& processDirectives,
                                const Directives& defaults) const {
    network.verify();
    std::vector<HlsResult> results;
    results.reserve(network.processes().size());
    for (const Process& p : network.processes()) {
        const auto it = processDirectives.find(p.name);
        results.push_back(
            synthesize(p.kernel, it != processDirectives.end() ? it->second : defaults));
    }
    std::vector<const HlsResult*> ptrs;
    ptrs.reserve(results.size());
    for (const HlsResult& r : results) {
        ptrs.push_back(&r);
    }
    return assembleNetwork(network, ptrs);
}

} // namespace socgen::hls
