#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/rtl/compose.hpp"
#include "socgen/rtl/netlist.hpp"
#include "socgen/rtl/primitives.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"

#include "netlist_gen.hpp"

#include <gtest/gtest.h>

#include <map>
#include <thread>

namespace socgen::rtl {
namespace {

TEST(Netlist, BuildAndInspect) {
    Netlist n("simple");
    const NetId a = n.addNet("a", 8);
    const NetId b = n.addNet("b", 8);
    const NetId sum = n.addNet("sum", 8);
    n.addPort("a", PortDir::In, 8, a);
    n.addPort("b", PortDir::In, 8, b);
    n.addCell("add0", CellKind::Add, 8, {a, b}, {sum});
    n.addPort("sum", PortDir::Out, 8, sum);

    EXPECT_EQ(n.name(), "simple");
    EXPECT_EQ(n.nets().size(), 3u);
    EXPECT_EQ(n.cells().size(), 1u);
    EXPECT_EQ(n.ports().size(), 3u);
    EXPECT_EQ(n.countKind(CellKind::Add), 1u);
    EXPECT_EQ(n.countKind(CellKind::Mul), 0u);
    EXPECT_TRUE(n.hasPort("sum"));
    EXPECT_FALSE(n.hasPort("nope"));
    EXPECT_EQ(n.port("sum").dir, PortDir::Out);
    EXPECT_EQ(n.net(sum).driver, 0u);
    EXPECT_NO_THROW(n.check());
}

TEST(Netlist, MissingPortThrows) {
    Netlist n("x");
    EXPECT_THROW((void)n.port("absent"), Error);
}

TEST(Netlist, MultipleDriversRejected) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 4);
    const NetId out = n.addNet("out", 4);
    n.addPort("a", PortDir::In, 4, a);
    n.addCell("c1", CellKind::Not, 4, {a}, {out});
    EXPECT_THROW(n.addCell("c2", CellKind::Not, 4, {a}, {out}), Error);
}

TEST(Netlist, UndrivenNetFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("floating", 4);
    (void)a;
    EXPECT_THROW(n.check(), Error);
}

// check() remembers a pass; any later mutation must make the next check
// look at the netlist again.
TEST(Netlist, ChangeAfterPassingCheckIsCheckedAgain) {
    Netlist n = makeAdder("add", 8);
    EXPECT_NO_THROW(n.check());
    (void)n.addNet("floating", 4);
    EXPECT_THROW(n.check(), Error);

    Netlist pins = makeAdder("add", 8);
    pins.check();
    pins.addCell("bad", CellKind::Add, 8, {pins.ports().front().net}, {});  // Add needs 2 inputs
    EXPECT_THROW(pins.check(), Error);

    Netlist ported = makeAdder("add", 8);
    ported.check();
    const NetId k = ported.addNet("k", 4);
    ported.addCell("k", CellKind::Const, 4, {}, {k}, 1);
    EXPECT_NO_THROW(ported.check());
    ported.addPort("k_in", PortDir::In, 4, k);  // an input port on a cell-driven net
    EXPECT_THROW(ported.check(), Error);

    // A copy carries the verdict of what it copies, not of its target.
    Netlist copy = makeAdder("add", 8);
    copy.check();
    copy = n;
    EXPECT_THROW(copy.check(), Error);
}

TEST(Netlist, InputPortDrivenByCellFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 4);
    n.addPort("a", PortDir::In, 4, a);
    Netlist good("aux");
    (void)good;
    // Drive the input-port net from a constant cell: invalid.
    n.addCell("k", CellKind::Const, 4, {}, {a}, 1);
    EXPECT_THROW(n.check(), Error);
}

TEST(Netlist, WrongPinCountFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 4);
    const NetId out = n.addNet("out", 4);
    n.addPort("a", PortDir::In, 4, a);
    n.addCell("add", CellKind::Add, 4, {a}, {out});  // Add needs 2 inputs
    EXPECT_THROW(n.check(), Error);
}

TEST(Netlist, ZeroWidthNetFailsCheck) {
    Netlist n("bad");
    const NetId a = n.addNet("a", 0);
    n.addPort("a", PortDir::In, 0, a);
    EXPECT_THROW(n.check(), Error);
}

TEST(Netlist, CombinationalCycleDetected) {
    Netlist n("cyclic");
    const NetId x = n.addNet("x", 1);
    const NetId y = n.addNet("y", 1);
    n.addCell("n1", CellKind::Not, 1, {y}, {x});
    n.addCell("n2", CellKind::Not, 1, {x}, {y});
    EXPECT_THROW((void)n.topoOrder(), Error);
}

TEST(Netlist, RegisterBreaksCycle) {
    // Counter: reg -> add -> reg is sequential, not a combinational cycle.
    const Netlist n = makeCounter("ctr", 8);
    EXPECT_NO_THROW(n.check());
    const auto order = n.topoOrder();
    // Only combinational cells appear in the order.
    for (const CellId id : order) {
        EXPECT_TRUE(isCombinational(n.cell(id).kind));
    }
}

TEST(Netlist, TopoOrderRespectsDependencies) {
    Netlist n("chain");
    const NetId a = n.addNet("a", 8);
    n.addPort("a", PortDir::In, 8, a);
    const NetId t1 = n.addNet("t1", 8);
    const NetId t2 = n.addNet("t2", 8);
    n.addCell("second", CellKind::Not, 8, {t1}, {t2});  // added first, depends on t1
    n.addCell("first", CellKind::Not, 8, {a}, {t1});
    const auto order = n.topoOrder();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(n.cell(order[0]).name, "first");
    EXPECT_EQ(n.cell(order[1]).name, "second");
}

TEST(PinSpecs, MatchCellSemantics) {
    EXPECT_EQ(pinSpec(CellKind::Const).inputs, 0);
    EXPECT_EQ(pinSpec(CellKind::Not).inputs, 1);
    EXPECT_EQ(pinSpec(CellKind::Add).inputs, 2);
    EXPECT_EQ(pinSpec(CellKind::Mux).inputs, 3);
    EXPECT_EQ(pinSpec(CellKind::Bram).inputs, 3);
    EXPECT_LT(pinSpec(CellKind::Reg).inputs, 0);  // variadic (d [, en])
}

TEST(CellKinds, NamesAndCombinationalFlag) {
    EXPECT_EQ(cellKindName(CellKind::Add), "ADD");
    EXPECT_EQ(cellKindName(CellKind::Bram), "BRAM");
    EXPECT_TRUE(isCombinational(CellKind::Mux));
    EXPECT_FALSE(isCombinational(CellKind::Reg));
    EXPECT_FALSE(isCombinational(CellKind::Bram));
    EXPECT_FALSE(isCombinational(CellKind::Fsm));
}

class PrimitiveWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrimitiveWidths, ReferenceCircuitsAreValid) {
    const unsigned width = GetParam();
    EXPECT_NO_THROW(makeCounter("c", width).check());
    EXPECT_NO_THROW(makeAdder("a", width).check());
    EXPECT_NO_THROW(makeMac("m", width).check());
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimitiveWidths, ::testing::Values(1u, 4u, 8u, 16u, 32u, 64u));

TEST(NetlistBuilder, BuildsConnectedDatapath) {
    NetlistBuilder b("dp");
    const NetId x = b.inputPort("x", 16);
    const NetId k = b.constant(3, 16);
    const NetId prod = b.binary(CellKind::Mul, x, k, 16);
    const NetId q = b.reg(prod, kInvalid, 16);
    b.outputPort("y", q);
    const Netlist& n = b.netlist();
    EXPECT_NO_THROW(n.check());
    EXPECT_EQ(n.countKind(CellKind::Mul), 1u);
    EXPECT_EQ(n.countKind(CellKind::Reg), 1u);
    EXPECT_EQ(n.countKind(CellKind::Const), 1u);
}

// ---- the flat pin pool, fanout index and block flatten against references

/// Netlist::topoOrder as it was computed with one consumer vector per
/// net: Kahn's algorithm with a LIFO ready stack seeded in CellId order.
/// Returns fewer cells than there are combinational ones on a cycle.
std::vector<CellId> referenceTopoOrder(const Netlist& n) {
    const auto& cells = n.cells();
    std::vector<int> pendingInputs(cells.size(), 0);
    std::vector<std::vector<CellId>> consumers(n.nets().size());
    for (CellId id = 0; id < cells.size(); ++id) {
        if (!isCombinational(cells[id].kind)) {
            continue;
        }
        for (NetId in : n.inputs(cells[id])) {
            const CellId driver = n.net(in).driver;
            if (driver != kInvalid && isCombinational(cells[driver].kind)) {
                ++pendingInputs[id];
                consumers[in].push_back(id);
            }
        }
    }
    std::vector<CellId> order;
    std::vector<CellId> ready;
    for (CellId id = 0; id < cells.size(); ++id) {
        if (isCombinational(cells[id].kind) && pendingInputs[id] == 0) {
            ready.push_back(id);
        }
    }
    while (!ready.empty()) {
        const CellId id = ready.back();
        ready.pop_back();
        order.push_back(id);
        for (NetId out : n.outputs(cells[id])) {
            for (CellId consumer : consumers[out]) {
                if (--pendingInputs[consumer] == 0) {
                    ready.push_back(consumer);
                }
            }
        }
    }
    return order;
}

/// flattenInto as it was before the block copy: a map from bound port
/// nets, then one addNet per net and one addCell per cell.
std::map<std::string, NetId> referenceFlatten(Netlist& dst, const Netlist& src,
                                              std::string_view prefix,
                                              const std::map<std::string, NetId>& portBind) {
    const std::string pfx(prefix);
    std::map<NetId, NetId> remap;
    struct Alias {
        NetId canonical;
        NetId extra;
        unsigned width;
        std::string port;
    };
    std::vector<Alias> aliases;
    for (const auto& [portName, dstNet] : portBind) {
        if (!src.hasPort(portName)) {
            throw Error("flatten: instance '" + src.name() + "' has no port '" + portName +
                        "'");
        }
        const Port& port = src.port(portName);
        if (dst.net(dstNet).width != port.width) {
            throw Error("flatten: port '" + portName + "' of '" + src.name() + "' is " +
                        std::to_string(port.width) + " bit(s) but the bound net '" +
                        dst.net(dstNet).name + "' is " +
                        std::to_string(dst.net(dstNet).width));
        }
        const auto [it, fresh] = remap.emplace(port.net, dstNet);
        if (!fresh && it->second != dstNet) {
            if (port.dir == PortDir::Out) {
                aliases.push_back(Alias{it->second, dstNet, port.width, portName});
                continue;
            }
            throw Error("flatten: port '" + portName + "' of '" + src.name() +
                        "' shares a net with another bound port mapped elsewhere");
        }
    }
    std::vector<NetId> netMap(src.nets().size(), kInvalid);
    for (NetId id = 0; id < src.nets().size(); ++id) {
        const auto bound = remap.find(id);
        netMap[id] = bound != remap.end()
                         ? bound->second
                         : dst.addNet(pfx + src.net(id).name, src.net(id).width);
    }
    for (const Cell& cell : src.cells()) {
        std::vector<NetId> inputs;
        for (const NetId in : src.inputs(cell)) {
            inputs.push_back(netMap[in]);
        }
        std::vector<NetId> outputs;
        for (const NetId out : src.outputs(cell)) {
            outputs.push_back(netMap[out]);
        }
        dst.addCell(pfx + cell.name, cell.kind, cell.width, inputs, outputs, cell.param);
    }
    for (const Alias& alias : aliases) {
        dst.addCell(pfx + "alias_" + alias.port, CellKind::Or, alias.width,
                    {alias.canonical, alias.canonical}, {alias.extra});
    }
    std::map<std::string, NetId> portNets;
    for (const Port& port : src.ports()) {
        portNets[port.name] = netMap[port.net];
    }
    for (const Alias& alias : aliases) {
        portNets[alias.port] = alias.extra;
    }
    return portNets;
}

using FlattenFn = std::map<std::string, NetId> (*)(Netlist&, const Netlist&, std::string_view,
                                                   const std::map<std::string, NetId>&);

/// The dataflow wrapper as HlsEngine::assembleNetwork wires it (FIFOs,
/// processes bound to their faces and to ap_start, external ports, the
/// ap_done AND chain), with each instance flattened by `flatten`.
Netlist assembleWrapper(const hls::ProcessNetwork& network,
                        const std::vector<hls::HlsResult>& results, FlattenFn flatten) {
    Netlist wrapper(sanitizeIdentifier(network.name()));
    const NetId apStart = wrapper.addNet("ap_start", 1);
    wrapper.addPort("ap_start", PortDir::In, 1, apStart);
    const auto& channels = network.channels();
    std::vector<std::map<std::string, NetId>> fifoNets;
    for (const hls::NetworkChannel& c : channels) {
        const std::string base = "fifo_" + sanitizeIdentifier(c.name);
        fifoNets.push_back(flatten(wrapper,
                                   makeFifo(base, c.width, c.depth, c.initialTokens),
                                   base + "_", {}));
    }
    const auto& processes = network.processes();
    std::vector<std::map<std::string, NetId>> processNets;
    for (std::size_t i = 0; i < processes.size(); ++i) {
        std::map<std::string, NetId> bind{{"ap_start", apStart}};
        for (std::size_t c = 0; c < channels.size(); ++c) {
            for (const auto& [process, port, face] :
                 {std::tuple{channels[c].fromProcess, channels[c].fromPort, "in"},
                  std::tuple{channels[c].toProcess, channels[c].toPort, "out"}}) {
                if (process != processes[i].name) {
                    continue;
                }
                for (const char* signal : {"_tdata", "_tvalid", "_tready"}) {
                    bind[sanitizeIdentifier(port) + signal] =
                        fifoNets[c].at(std::string(face) + signal);
                }
            }
        }
        processNets.push_back(flatten(wrapper, results[i].netlist,
                                      sanitizeIdentifier(processes[i].name) + "_", bind));
    }
    for (const hls::NetworkBinding& b : network.bindings()) {
        const std::size_t pi = network.processIndex(b.process);
        const hls::Kernel& kernel = processes[pi].kernel;
        const hls::KernelPort& port = kernel.port(kernel.portId(b.processPort));
        const std::string inner = sanitizeIdentifier(b.processPort);
        const std::string outer = sanitizeIdentifier(b.networkPort);
        const auto net = [&](const char* suffix) { return processNets[pi].at(inner + suffix); };
        switch (port.kind) {
        case hls::PortKind::StreamIn:
            wrapper.addPort(outer + "_tdata", PortDir::In, port.width, net("_tdata"));
            wrapper.addPort(outer + "_tvalid", PortDir::In, 1, net("_tvalid"));
            wrapper.addPort(outer + "_tready", PortDir::Out, 1, net("_tready"));
            break;
        case hls::PortKind::StreamOut:
            wrapper.addPort(outer + "_tready", PortDir::In, 1, net("_tready"));
            wrapper.addPort(outer + "_tdata", PortDir::Out, port.width, net("_tdata"));
            wrapper.addPort(outer + "_tvalid", PortDir::Out, 1, net("_tvalid"));
            break;
        case hls::PortKind::ScalarIn:
            wrapper.addPort(outer, PortDir::In, port.width, net(""));
            break;
        case hls::PortKind::ScalarOut:
            wrapper.addPort(outer, PortDir::Out, port.width, net(""));
            break;
        }
    }
    NetId done = processNets[0].at("ap_done");
    for (std::size_t i = 1; i < processes.size(); ++i) {
        const NetId next = wrapper.addNet(concat("done_and_", i), 1);
        wrapper.addCell(concat("done_and_", i), CellKind::And, 1,
                        {done, processNets[i].at("ap_done")}, {next});
        done = next;
    }
    wrapper.addPort("ap_done", PortDir::Out, 1, done);
    return wrapper;
}

void expectSameNetlist(const Netlist& a, const Netlist& b) {
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.nets().size(), b.nets().size());
    for (NetId id = 0; id < a.nets().size(); ++id) {
        EXPECT_EQ(a.net(id).name, b.net(id).name) << "net " << id;
        EXPECT_EQ(a.net(id).width, b.net(id).width) << "net " << id;
        EXPECT_EQ(a.net(id).driver, b.net(id).driver) << "net " << id;
    }
    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (CellId id = 0; id < a.cells().size(); ++id) {
        const Cell& x = a.cell(id);
        const Cell& y = b.cell(id);
        EXPECT_EQ(x.name, y.name) << "cell " << id;
        EXPECT_EQ(x.kind, y.kind) << "cell " << id;
        EXPECT_EQ(x.width, y.width) << "cell " << id;
        EXPECT_EQ(x.param, y.param) << "cell " << id;
        EXPECT_TRUE(std::ranges::equal(a.inputs(x), b.inputs(y))) << "cell " << id;
        EXPECT_TRUE(std::ranges::equal(a.outputs(x), b.outputs(y))) << "cell " << id;
    }
    EXPECT_EQ(a.pins(), b.pins());
    ASSERT_EQ(a.ports().size(), b.ports().size());
    for (std::size_t i = 0; i < a.ports().size(); ++i) {
        EXPECT_EQ(a.ports()[i].name, b.ports()[i].name) << "port " << i;
        EXPECT_EQ(a.ports()[i].dir, b.ports()[i].dir) << "port " << i;
        EXPECT_EQ(a.ports()[i].width, b.ports()[i].width) << "port " << i;
        EXPECT_EQ(a.ports()[i].net, b.ports()[i].net) << "port " << i;
    }
}

std::string hdlDigests(const Netlist& n) {
    return digest128(VhdlEmitter{}.emit(n)).hex() + " " +
           digest128(VerilogEmitter{}.emit(n)).hex();
}

/// A network's process results under default directives.
std::vector<hls::HlsResult> synthesizeProcesses(const hls::ProcessNetwork& network) {
    std::vector<hls::HlsResult> results;
    for (const hls::Process& p : network.processes()) {
        results.push_back(hls::HlsEngine{}.synthesize(p.kernel, {}));
    }
    return results;
}

std::vector<hls::ProcessNetwork> dataflowNetworks() {
    return {apps::makeStreamPipelineNetwork(256), apps::makeOtsuDataflowNetwork(256, 256)};
}

/// The 40-seed random corpus, every app-library core, and both dataflow
/// networks' processes and wrappers.
const std::vector<std::pair<std::string, Netlist>>& netlistCorpus() {
    static const std::vector<std::pair<std::string, Netlist>> corpus = [] {
        std::vector<std::pair<std::string, Netlist>> all;
        for (const std::uint64_t seed : testing::diffSimSeeds()) {
            all.emplace_back(concat("rand/", seed),
                             testing::randomNetlist(seed, testing::sweepOptions(seed)));
        }
        constexpr std::int64_t pixels = 64 * 64;
        const hls::Kernel kernels[] = {
            apps::makeGrayScaleKernel(pixels), apps::makeHistogramKernel(pixels),
            apps::makeOtsuKernel(pixels),      apps::makeBinarizationKernel(pixels),
            apps::makeAddKernel(),             apps::makeMulKernel(),
            apps::makeGaussKernel(256),        apps::makeEdgeKernel(256),
            apps::makeSobelKernel(32, 32)};
        const hls::HlsEngine engine;
        for (const hls::Kernel& kernel : kernels) {
            all.emplace_back(kernel.name(), engine.synthesize(kernel, {}).netlist);
        }
        for (const hls::ProcessNetwork& network : dataflowNetworks()) {
            const std::vector<hls::HlsResult> results = synthesizeProcesses(network);
            std::vector<const hls::HlsResult*> ptrs;
            for (const hls::HlsResult& r : results) {
                all.emplace_back(network.name() + "/" + r.kernelName, r.netlist);
                ptrs.push_back(&r);
            }
            all.emplace_back(network.name(), engine.assembleNetwork(network, ptrs).netlist);
        }
        return all;
    }();
    return corpus;
}

TEST(NetlistFlat, TopoOrderMatchesPerNetConsumerReference) {
    for (const auto& [label, netlist] : netlistCorpus()) {
        EXPECT_EQ(netlist.topoOrder(), referenceTopoOrder(netlist)) << label;
    }
}

TEST(NetlistFlat, FanoutMatchesBruteForceScan) {
    for (const auto& [label, netlist] : netlistCorpus()) {
        std::vector<std::vector<CellId>> readers(netlist.nets().size());
        for (CellId id = 0; id < netlist.cells().size(); ++id) {
            for (NetId in : netlist.inputs(netlist.cell(id))) {
                readers[in].push_back(id);
            }
        }
        const Fanout fanout = netlist.fanout();
        ASSERT_EQ(fanout.first.size(), netlist.nets().size() + 1) << label;
        for (NetId net = 0; net < netlist.nets().size(); ++net) {
            EXPECT_TRUE(std::ranges::equal(fanout.of(net), readers[net]))
                << label << " net " << net;
        }
    }
}

TEST(NetlistFlat, PinsArePooledInCellOrder) {
    Netlist n("pool");
    const NetId a = n.addNet("a", 4);
    const NetId en = n.addNet("en", 1);
    const NetId q = n.addNet("q", 4);
    const NetId sum = n.addNet("sum", 4);
    n.addPort("a", PortDir::In, 4, a);
    n.addPort("en", PortDir::In, 1, en);
    n.addCell("add", CellKind::Add, 4, {a, q}, {sum});
    n.addCell("reg", CellKind::Reg, 4, {sum, en}, {q});
    EXPECT_EQ(n.pins(), (std::vector<NetId>{a, q, sum, sum, en, q}));
    EXPECT_TRUE(std::ranges::equal(n.inputs(n.cell(1)), std::vector<NetId>{sum, en}));
    EXPECT_TRUE(std::ranges::equal(n.outputs(n.cell(1)), std::vector<NetId>{q}));
    const Netlist copy = n;
    expectSameNetlist(copy, n);
    EXPECT_NO_THROW(copy.check());
}

TEST(NetlistFlat, BlockFlattenMatchesPerCellReference) {
    for (const hls::ProcessNetwork& network : dataflowNetworks()) {
        const std::vector<hls::HlsResult> results = synthesizeProcesses(network);
        const Netlist block = assembleWrapper(network, results, &flattenInto);
        const Netlist reference = assembleWrapper(network, results, &referenceFlatten);
        expectSameNetlist(block, reference);
        std::vector<const hls::HlsResult*> ptrs;
        for (const hls::HlsResult& r : results) {
            ptrs.push_back(&r);
        }
        const Netlist engine = hls::HlsEngine{}.assembleNetwork(network, ptrs).netlist;
        expectSameNetlist(block, engine);
        EXPECT_EQ(hdlDigests(block), hdlDigests(reference)) << network.name();
        EXPECT_EQ(hdlDigests(block), hdlDigests(engine)) << network.name();
    }
}

TEST(NetlistFlat, BadBindingsThrowAsTheReferenceDoes) {
    // An instance with two input ports on one net and two output ports on
    // another (the second output is fanned out through an alias cell).
    Netlist src("inst");
    const NetId x = src.addNet("x", 4);
    const NetId y = src.addNet("y", 4);
    src.addPort("a", PortDir::In, 4, x);
    src.addPort("b", PortDir::In, 4, x);
    src.addCell("neg", CellKind::Not, 4, {x}, {y});
    src.addPort("o1", PortDir::Out, 4, y);
    src.addPort("o2", PortDir::Out, 4, y);

    struct Outcome {
        std::string error;
        std::map<std::string, NetId> ports;
        Netlist dst{"top"};
    };
    // The parent: net 0 driven by a constant, nets 1 and 2 free 4-bit
    // nets, net 3 a free 1-bit net.
    const auto run = [&](FlattenFn flatten, const std::map<std::string, NetId>& bind) {
        Outcome out;
        const NetId driven = out.dst.addNet("driven", 4);
        out.dst.addCell("k", CellKind::Const, 4, {}, {driven}, 3);
        out.dst.addNet("free4", 4);
        out.dst.addNet("free4b", 4);
        out.dst.addNet("free1", 1);
        try {
            out.ports = flatten(out.dst, src, "u_", bind);
        } catch (const Error& e) {
            out.error = e.what();
        }
        return out;
    };
    const std::pair<const char*, std::map<std::string, NetId>> cases[] = {
        {"width mismatch", {{"a", 3}}},
        {"unknown port", {{"c", 1}}},
        {"multiple drivers", {{"o1", 0}}},
        {"shared input", {{"a", 1}, {"b", 2}}},
        {"aliased output", {{"o1", 1}, {"o2", 2}}},
    };
    const char* const expected[] = {"bit(s) but the bound net", "has no port 'c'",
                                    "has multiple drivers", "shares a net", ""};
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const auto& [label, bind] = cases[i];
        const Outcome block = run(&flattenInto, bind);
        const Outcome reference = run(&referenceFlatten, bind);
        EXPECT_EQ(block.error, reference.error) << label;
        if (*expected[i] != '\0') {
            EXPECT_NE(block.error.find(expected[i]), std::string::npos)
                << label << ": " << block.error;
            continue;
        }
        EXPECT_TRUE(block.error.empty()) << label << ": " << block.error;
        EXPECT_EQ(block.ports, reference.ports) << label;
        expectSameNetlist(block.dst, reference.dst);
    }
}

TEST(NetlistFlat, ThreadsCheckOneSharedNetlist) {
    // Copies carry a passing check; adding a port clears it, so every
    // thread below races to run check() for real on the shared netlist.
    Netlist built = netlistCorpus().back().second;
    built.addPort("probe", PortDir::Out, built.net(0).width, 0);
    const Netlist& shared = built;
    const std::vector<CellId> order = referenceTopoOrder(shared);
    const Fanout fanout = shared.fanout();
    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 8; ++round) {
                shared.check();
                const Fanout mine = shared.fanout();
                if (shared.topoOrder() != order || mine.first != fanout.first ||
                    mine.cells != fanout.cells) {
                    ++mismatches[t];
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

} // namespace
} // namespace socgen::rtl
