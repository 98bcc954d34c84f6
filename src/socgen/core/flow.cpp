#include "socgen/core/flow.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/report.hpp"
#include "socgen/soc/tcl.hpp"
#include "socgen/sw/devicetree.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace socgen::core {
namespace {

struct SynthOut {
    soc::SynthesisResult synthesis;
    soc::Bitstream bitstream;
};

} // namespace

std::optional<hls::HlsResult> HlsCache::find(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = results_.find(key);
    if (it == results_.end()) {
        return std::nullopt;
    }
    // By value: a pointer into the map would dangle the moment another
    // flow sharing the cache inserts concurrently.
    return it->second;
}

void HlsCache::store(const std::string& key, hls::HlsResult result) {
    const std::lock_guard<std::mutex> lock(mutex_);
    results_.emplace(key, std::move(result));
}

std::size_t HlsCache::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return results_.size();
}

Flow::Flow(FlowOptions options, const hls::KernelLibrary& kernels,
           std::shared_ptr<HlsCache> cache)
    : options_(std::move(options)), kernels_(kernels), cache_(std::move(cache)),
      faultHooks_(options_.flowFaults) {
    if (options_.sharedStore != nullptr) {
        store_ = options_.sharedStore;
    } else if (!options_.outputDir.empty()) {
        store_ = std::make_shared<ArtifactStore>(options_.outputDir + "/.socgen/store");
    }
    transientRemaining_ = options_.transientHlsFailures;
}

hls::Directives Flow::directivesFor(const TgNode& node) const {
    hls::Directives d = options_.defaultDirectives;
    const auto it = options_.kernelDirectives.find(node.name);
    if (it != options_.kernelDirectives.end()) {
        d = it->second;
    }
    // The DSL `i`/`is` keywords inject interface directives (paper
    // Section IV-B step 3).
    for (const auto& port : node.ports) {
        d.interfaces[port.name] = port.protocol;
    }
    return d;
}

hls::Directives Flow::directivesForProcess(const TgNode& node,
                                           const hls::ProcessNetwork& network,
                                           const std::string& process) const {
    hls::Directives d = options_.defaultDirectives;
    const auto scoped = options_.kernelDirectives.find(node.name + "/" + process);
    if (scoped != options_.kernelDirectives.end()) {
        d = scoped->second;
    } else {
        const auto it = options_.kernelDirectives.find(node.name);
        if (it != options_.kernelDirectives.end()) {
            d = it->second;
        }
    }
    // Internal channel endpoints are AXI-Stream by construction — the
    // dataflow wrapper wires them straight into FIFO primitives.
    for (const auto& c : network.channels()) {
        if (c.fromProcess == process) {
            d.interfaces[c.fromPort] = hls::InterfaceProtocol::AxiStream;
        }
        if (c.toProcess == process) {
            d.interfaces[c.toPort] = hls::InterfaceProtocol::AxiStream;
        }
    }
    // Exported ports inherit the protocol the DSL declared on the
    // network-level port they surface as.
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

const hls::ProcessNetwork& Flow::nodeNetwork(const TgNode& node) const {
    if (!kernels_.has(node.name)) {
        throw DslError(format("no kernel source registered for node \"%s\" (the flow "
                              "needs a synthesizable description per hardware task)",
                              node.name.c_str()));
    }
    return kernels_.network(node.name);
}

void Flow::validateNodeInterface(const TgNode& node,
                                 const hls::ProcessNetwork& network) const {
    // Structural checks first: dangling ports, scalar channels, token-free
    // cycles (ChannelDeadlockError) all abort the flow — they indicate a
    // broken project, not a flaky tool.
    network.verify();
    // Interface consistency: every DSL port must exist on the network's
    // external signature with a compatible kind.
    const std::vector<hls::KernelPort> external = network.externalPorts();
    for (const auto& port : node.ports) {
        const hls::KernelPort* found = nullptr;
        for (const auto& kp : external) {
            if (kp.name == port.name) {
                found = &kp;
                break;
            }
        }
        if (found == nullptr) {
            throw DslError(format("node \"%s\": kernel has no port '%s'",
                                  node.name.c_str(), port.name.c_str()));
        }
        const bool stream = hls::isStreamPort(found->kind);
        const bool wantStream = port.protocol == hls::InterfaceProtocol::AxiStream;
        if (stream != wantStream) {
            throw DslError(format("node \"%s\": port '%s' is declared %s in the DSL but "
                                  "the kernel exposes a %s interface",
                                  node.name.c_str(), port.name.c_str(),
                                  wantStream ? "is (AXI-Stream)" : "i (AXI-Lite)",
                                  std::string(hls::portKindName(found->kind)).c_str()));
        }
    }
}

std::string Flow::networkKeyFor(const TgNode& node,
                                const hls::ProcessNetwork& network) const {
    HashStream h;
    h.field(std::string_view("socgen-network-key-v1"));
    const Digest128 fp = hls::fingerprintNetwork(network);
    h.field(fp.hi);
    h.field(fp.lo);
    for (const auto& p : network.processes()) {
        h.field(ArtifactStore::deriveKey(p.kernel,
                                         directivesForProcess(node, network, p.name),
                                         options_.device, options_.toolVersion));
    }
    return h.digest().hex();
}

std::string Flow::flowFingerprint(const std::string& projectName,
                                  const TaskGraph& graph) const {
    // Everything that determines the flow's outputs; fault-injection
    // hooks and retry policy are deliberately excluded so a
    // crashed run and its recovery run agree on the fingerprint. The
    // flow builds no RTL simulator, so no simulation setting belongs
    // here (FlowRecovery.FingerprintCoversExactlyTheOutputInputs).
    HashStream h;
    h.field("socgen-flow-v7");
    h.field(projectName);
    h.field(graph.renderDsl(projectName));
    // Each node's kernel sources: a changed kernel body must reset the
    // journal, not resume it and then disagree with its commits. A node
    // the library lacks hashes a marker; its stage reports the error.
    for (const TgNode& node : graph.nodes()) {
        if (kernels_.has(node.name)) {
            h.field(hls::fingerprintNetwork(kernels_.network(node.name)).hex());
        } else {
            h.field(std::string_view("no-kernel"));
        }
    }
    h.field(options_.device.part).field(options_.device.board);
    h.field(options_.device.lut).field(options_.device.ff);
    h.field(options_.device.bram18).field(options_.device.dsp);
    h.field(options_.device.fabricClockMhz);
    h.field(static_cast<std::uint64_t>(options_.dmaPolicy));
    h.field(static_cast<std::uint64_t>(options_.runSynthesis ? 1 : 0));
    h.field(static_cast<std::uint64_t>(options_.generateSoftware ? 1 : 0));
    h.field(options_.toolVersion);
    h.field(hls::fingerprintDirectives(options_.defaultDirectives).hex());
    for (const auto& [name, directives] : options_.kernelDirectives) {
        h.field(name).field(hls::fingerprintDirectives(directives).hex());
    }
    return h.digest().hex();
}

void Flow::simulateToolWait(double toolSeconds) const {
    if (options_.toolLatencyMsPerToolSecond <= 0.0 || toolSeconds <= 0.0) {
        return;
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        toolSeconds * options_.toolLatencyMsPerToolSecond));
}

bool Flow::consumeTransientFailure(const std::string& kernel) {
    const std::lock_guard<std::mutex> lock(faultMutex_);
    const auto it = transientRemaining_.find(kernel);
    if (it == transientRemaining_.end() || it->second == 0) {
        return false;
    }
    --it->second;
    return true;
}

Flow::HlsAttemptOut Flow::hlsAttempt(const TgNode& node) {
    const hls::ProcessNetwork& net = nodeNetwork(node);
    validateNodeInterface(node, net);
    // Trivial network == the legacy single-kernel path: the node's sole
    // process IS the node, synthesized and keyed exactly as before the
    // process-network model existed. Multi-process networks go through
    // per-process stages instead (see run()).
    const hls::Kernel& kernel = net.processes().front().kernel;
    return hlsKernelAttempt(kernel, directivesFor(node), node.name, "hls:" + node.name,
                            node.name);
}

Flow::HlsAttemptOut Flow::hlsKernelAttempt(const hls::Kernel& kernel,
                                           const hls::Directives& directives,
                                           const std::string& label,
                                           const std::string& stageName,
                                           const std::string& nodeName) {
    HlsAttemptOut out;
    out.artifactKey =
        ArtifactStore::deriveKey(kernel, directives, options_.device, options_.toolVersion);

    // Reuse order: in-memory cache (same process), then the persistent
    // store (earlier run / crashed run). A store object that fails
    // validation is reported and rebuilt — never silently loaded.
    const auto tryReuse = [this, &label, &stageName, &out]() -> bool {
        if (cache_ != nullptr) {
            if (std::optional<hls::HlsResult> hit = cache_->find(out.artifactKey)) {
                Logger::global().info("hls: cache hit for " + label);
                out.cacheHit = true;
                out.result = std::move(*hit);
                return true;
            }
        }
        if (store_ != nullptr) {
            ArtifactStore::LoadDiag diag;
            if (std::optional<hls::HlsResult> loaded = store_->load(out.artifactKey, &diag)) {
                Logger::global().info("hls: artifact store hit for " + label);
                out.storeHit = true;
                out.resumedFromJournal = committedAtOpen_.count(stageName) > 0;
                out.result = std::move(*loaded);
                return true;
            }
            if (!diag.whyMiss.empty()) {
                out.rejectedWhy = diag.whyMiss;
                out.quarantined = diag.quarantined;
                Logger::global().warn(format("hls: stored artifact of %s rejected (%s); "
                                             "re-synthesizing",
                                             label.c_str(), diag.whyMiss.c_str()));
            }
        }
        return false;
    };

    // Fault hooks match either the exact label ("node/process") or the
    // node name — injecting by node fails every process of that node.
    const bool injected = options_.injectHlsFailures.count(label) > 0 ||
                          options_.injectHlsFailures.count(nodeName) > 0;
    if (!injected) {
        if (tryReuse()) {
            return out;
        }
        if (options_.synthGate != nullptr) {
            // Become (or wait for) the key's leader. The token rides in
            // `out` so leadership lasts until the commit has persisted
            // the result — followers then wake to a cache/store hit.
            SynthGate::Claim claim = options_.synthGate->claim(out.artifactKey);
            out.gateToken = std::move(claim.token);
            // Re-check even without a wait: a leader may have persisted
            // and released between the tryReuse() above and this claim.
            if (tryReuse()) {
                // Release immediately: we are not going to synthesize, so
                // other waiting followers can re-check right away.
                out.gateToken.reset();
                return out;
            }
            // Either we lead, or the leader failed and persisted nothing:
            // synthesize ourselves.
        }
    }
    if (injected) {
        // Fires on every attempt so the failure is deterministic even when
        // a previous architecture already synthesized this kernel.
        throw HlsError(format("injected HLS failure for kernel \"%s\"", label.c_str()));
    }
    if (consumeTransientFailure(label) ||
        (label != nodeName && consumeTransientFailure(nodeName))) {
        throw HlsError(
            format("injected transient HLS failure for kernel \"%s\"", label.c_str()));
    }
    out.result = engine_.synthesize(kernel, directives);
    out.toolSeconds = out.result.toolSeconds;
    out.fromEngine = true;
    simulateToolWait(out.toolSeconds);
    return out;
}

void Flow::hlsPersist(const HlsAttemptOut& out) {
    if (cache_ != nullptr && (out.fromEngine || out.storeHit)) {
        cache_->store(out.artifactKey, out.result);
    }
    if (store_ != nullptr && out.fromEngine) {
        store_->store(out.artifactKey, out.result);
    }
}

std::pair<hls::HlsResult, double> Flow::synthesizeNode(const TgNode& node) {
    const hls::ProcessNetwork& net = nodeNetwork(node);
    if (net.trivial()) {
        StageSupervisor supervisor(options_.stagePolicy);
        HlsAttemptOut out =
            supervisor.run("hls:" + node.name, [this, &node] { return hlsAttempt(node); });
        hlsPersist(out);
        return {std::move(out.result), out.toolSeconds};
    }
    // Multi-process network: synthesize every process under its own
    // artifact key, then assemble the dataflow wrapper (cheap, never
    // cached). Tool time charged is the sum of process charges — 0 for
    // cache/store hits — plus the assembly cost.
    validateNodeInterface(node, net);
    std::vector<hls::HlsResult> parts;
    parts.reserve(net.processes().size());
    double charged = 0.0;
    StageSupervisor supervisor(options_.stagePolicy);
    for (const hls::Process& p : net.processes()) {
        const std::string stageName = "hls:" + node.name + "/" + p.name;
        HlsAttemptOut out = supervisor.run(stageName, [&, this] {
            return hlsKernelAttempt(p.kernel, directivesForProcess(node, net, p.name),
                                    node.name + "/" + p.name, stageName, node.name);
        });
        hlsPersist(out);
        charged += out.toolSeconds;
        parts.push_back(std::move(out.result));
    }
    std::vector<const hls::HlsResult*> ptrs;
    ptrs.reserve(parts.size());
    for (const hls::HlsResult& r : parts) {
        ptrs.push_back(&r);
    }
    hls::HlsResult assembled = engine_.assembleNetwork(net, ptrs);
    charged += assembled.toolSeconds;
    return {std::move(assembled), charged};
}

Flow::Integration Flow::integrate(const std::string& projectName, const TaskGraph& graph,
                                  const FlowResult& result,
                                  const std::set<std::string>& degraded) const {
    soc::BlockDesign design(projectName, options_.device, options_.dmaPolicy);
    // Degraded nodes get no hardware instance; their links are rewired to
    // the PS ('soc endpoints) below so surviving cores stay fully
    // connected and the PS feeds/drains them in software.
    for (const auto& node : graph.nodes()) {
        if (degraded.count(node.name) > 0) {
            continue;
        }
        const hls::HlsResult& hlsResult = result.hlsResults.at(node.name);
        std::vector<soc::CorePort> streamPorts;
        for (const auto& kp : hlsResult.program.ports) {
            if (hls::isStreamPort(kp.kind)) {
                streamPorts.push_back(soc::CorePort{
                    kp.name, hls::InterfaceProtocol::AxiStream,
                    kp.kind == hls::PortKind::StreamIn, kp.width});
            }
        }
        design.addHlsCore(node.name, hlsResult.resources, std::move(streamPorts),
                          node.hasAxiLitePort());
    }
    for (const auto& link : graph.links()) {
        const bool fromDegraded = !link.from.soc && degraded.count(link.from.node) > 0;
        const bool toDegraded = !link.to.soc && degraded.count(link.to.node) > 0;
        // A link with no surviving hardware end disappears entirely.
        if ((fromDegraded || link.from.soc) && (toDegraded || link.to.soc)) {
            continue;
        }
        // Stream width comes from the hardware end(s); direction checks
        // happen inside BlockDesign::finalise().
        unsigned width = 32;
        const auto widthOf = [&](const TgEndpoint& ep, bool wantInput) -> unsigned {
            const hls::Program& p = result.programs.at(ep.node);
            for (const auto& kp : p.ports) {
                if (kp.name == ep.port) {
                    const bool isInput = kp.kind == hls::PortKind::StreamIn;
                    if (isInput != wantInput) {
                        throw DslError(format(
                            "link endpoint (\"%s\",\"%s\") has the wrong direction",
                            ep.node.c_str(), ep.port.c_str()));
                    }
                    return kp.width;
                }
            }
            throw DslError(format("link endpoint (\"%s\",\"%s\") not found on kernel",
                                  ep.node.c_str(), ep.port.c_str()));
        };
        if (!link.from.soc && !fromDegraded) {
            width = widthOf(link.from, false);
        }
        if (!link.to.soc && !toDegraded) {
            width = std::max(width, widthOf(link.to, true));
        }
        const auto toEndpoint = [](const TgEndpoint& ep, bool epDegraded) {
            return (ep.soc || epDegraded)
                       ? soc::StreamEndpoint{soc::StreamEndpoint::kSoc, ""}
                       : soc::StreamEndpoint{ep.node, ep.port};
        };
        design.connectStream(toEndpoint(link.from, fromDegraded),
                             toEndpoint(link.to, toDegraded), width);
    }
    for (const auto& connect : graph.connects()) {
        if (degraded.count(connect.node) > 0) {
            continue;
        }
        design.connectLite(connect.node);
    }
    design.finalise();
    Integration out;
    out.tclText = soc::TclEmitter{}.emitProject(design);
    out.design = std::move(design);
    return out;
}

FlowResult Flow::run(const std::string& projectName, const TaskGraph& graph) {
    Logger::global().info("flow: starting project " + projectName);
    FlowResult result;
    result.projectName = projectName;
    result.graph = graph;

    // Journal bring-up (outputDir flows only). A matching header means a
    // previous run — possibly one that crashed — left trustworthy commit
    // records; a mismatch means the flow inputs changed and the journal
    // is reset, which also invalidates any resume decisions (the store
    // stays: its keys are content-addressed, so stale entries are inert).
    std::optional<FlowJournal> journal;
    committedAtOpen_.clear();
    digestsAtOpen_.clear();
    if (!options_.outputDir.empty()) {
        journal.emplace(FlowJournal::open(options_.outputDir + "/.socgen/journal/" +
                                          projectName + ".jsonl"));
        const std::string fingerprint = flowFingerprint(projectName, graph);
        if (!journal->matchesHeader(fingerprint)) {
            journal->reset(fingerprint, "project=" + projectName);
        } else {
            for (const std::string& stage : journal->committedStages()) {
                committedAtOpen_.insert(stage);
                if (const auto digest = journal->committedDigest(stage)) {
                    digestsAtOpen_[stage] = *digest;
                }
            }
            if (!committedAtOpen_.empty()) {
                Logger::global().info(
                    format("flow: journal shows %zu committed stage(s); resuming",
                           committedAtOpen_.size()));
            }
        }
    }
    struct OpenStateScope {
        Flow& flow;
        ~OpenStateScope() {
            flow.committedAtOpen_.clear();
            flow.digestsAtOpen_.clear();
        }
    } openScope{*this};

    // Event bus: built-in subscribers first (log lines, the per-stage
    // diagnostics table, the optional Chrome-trace timeline), then any
    // caller-provided ones.
    FlowEventBus bus;
    auto table = std::make_shared<StageTableSubscriber>();
    bus.subscribe(std::make_shared<LogSubscriber>());
    bus.subscribe(table);
    std::shared_ptr<ChromeTraceSubscriber> trace;
    if (!options_.traceOutPath.empty()) {
        trace = std::make_shared<ChromeTraceSubscriber>();
        bus.subscribe(trace);
    }
    for (const auto& subscriber : options_.subscribers) {
        bus.subscribe(subscriber);
    }

    const auto& nodes = graph.nodes();
    std::vector<FlowDiagnostics::NodeOutcome> outcomes(nodes.size());

    // ----- The flow, declared as a stage graph. Each stage states its
    // dependencies and splits into a pure supervised `attempt` and a
    // winner-only `commit`; journaling, retry, fault hooks, events and
    // scheduling all live in the executor.
    StageGraph stages;

    const double scalaToolSeconds = 5.4 + 0.15 * static_cast<double>(nodes.size());
    stages.add(Stage{
        .name = "scala",  // "compile the Scala task graph" (paper: ~6 s)
        .deps = {},
        .attempt =
            [&](const StageContext&) -> std::any {
                graph.validate();
                std::string dsl = graph.renderDsl(projectName);
                simulateToolWait(scalaToolSeconds);
                return dsl;
            },
        .commit =
            [&](std::any&& value, const StageRun&) {
                result.dslText = std::any_cast<std::string>(std::move(value));
                return StageOutput{digest128(result.dslText).hex(), scalaToolSeconds};
            },
    });

    // Every HLS stage degrades the same way. An HlsError is an engine
    // failure and a StageTimeoutError an engine hang; under the Degrade
    // policy the kernel is isolated instead of sinking the whole flow.
    // Anything else (DslError, FlowCrashError, internal errors) always
    // propagates.
    const auto absorbHlsFailure = [this](FlowDiagnostics::HlsOutcome& outcome,
                                         std::string what) {
        return [this, &outcome, what](const std::exception& e,
                                      const StageRun& meta) -> std::string {
            const bool engineKind = dynamic_cast<const HlsError*>(&e) != nullptr ||
                                    dynamic_cast<const StageTimeoutError*>(&e) != nullptr;
            if (!engineKind || options_.hlsFailurePolicy != HlsFailurePolicy::Degrade) {
                return "";
            }
            Logger::global().info(format("hls: %s degraded: %s", what.c_str(), e.what()));
            outcome.degraded = true;
            outcome.error = e.what();
            outcome.attempts = static_cast<unsigned>(meta.attempts);
            return "degraded: " + outcome.error;
        };
    };

    // The stage of one kernel synthesis: a single-kernel node, or one
    // process of a network node. The commit records the outcome,
    // publishes where the result came from, persists it and hands it to
    // `land`.
    const auto hlsStage = [&](const std::string& name, FlowDiagnostics::HlsOutcome& outcome,
                              std::string what, std::function<HlsAttemptOut()> attempt,
                              std::function<void(hls::HlsResult&&)> land) {
        return Stage{
            .name = name,
            .deps = {"scala"},
            .attempt = [attempt = std::move(attempt)](const StageContext&) -> std::any {
                return attempt();
            },
            .commit =
                [this, &bus, &outcome, name, land = std::move(land)](
                    std::any&& value, const StageRun& meta) {
                    HlsAttemptOut a = std::any_cast<HlsAttemptOut>(std::move(value));
                    outcome = a;
                    outcome.attempts =
                        a.fromEngine ? static_cast<unsigned>(meta.attempts) : 0u;
                    FlowEvent event;
                    event.stage = name;
                    if (!a.rejectedWhy.empty()) {
                        event.kind = FlowEventKind::ArtifactRejected;
                        event.detail = a.rejectedWhy;
                        bus.publish(event);
                    }
                    if (a.quarantined) {
                        event.kind = FlowEventKind::ArtifactQuarantined;
                        event.detail = a.rejectedWhy;
                        bus.publish(event);
                    }
                    if (a.cacheHit || a.storeHit) {
                        event.kind = a.cacheHit ? FlowEventKind::CacheHit
                                                : FlowEventKind::StoreHit;
                        event.detail = a.resumedFromJournal ? "journaled" : "";
                        bus.publish(event);
                    }
                    hlsPersist(a);
                    land(std::move(a.result));
                    return StageOutput{a.artifactKey, a.toolSeconds};
                },
            .absorbFailure = absorbHlsFailure(outcome, std::move(what)),
            .trackResume = false,  // HLS resume is tracked per kernel instead
        };
    };

    // Per-node HLS: one graph stage per node, each depending only on
    // "scala". Cached across architectures and, via the artifact store,
    // across runs and crashes.
    //
    // A multi-process network node expands instead into one stage per
    // process ("hls:<node>/<proc>", each its own journal record and
    // artifact) plus a cheap assembly stage named "hls:<node>" so every downstream dependency
    // (integrate, journaling, diagnostics) is shape-agnostic.
    std::vector<std::vector<std::optional<hls::HlsResult>>> processResults(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const TgNode& node = nodes[i];
        const std::string stageName = "hls:" + node.name;
        FlowDiagnostics::NodeOutcome& outcome = outcomes[i];
        outcome.node = node.name;
        if (!kernels_.has(node.name) || kernels_.network(node.name).trivial()) {
            Stage& stage = stages.add(hlsStage(
                stageName, outcome, "node " + node.name,
                [this, &node] { return hlsAttempt(node); },
                [&result, &node](hls::HlsResult&& r) {
                    result.programs.emplace(node.name, r.program);
                    result.hlsResults.emplace(node.name, std::move(r));
                }));
            stage.postCommit = [this, &node, &outcome] {
                const std::string& key = outcome.artifactKey;
                if (faultHooks_.consumeCorrupt(node.name) && store_ != nullptr &&
                    !key.empty() && store_->contains(key)) {
                    Logger::global().info("fault: corrupting stored artifact of " + node.name);
                    store_->corruptObject(key);
                }
            };
            continue;
        }
        const hls::ProcessNetwork& net = kernels_.network(node.name);
        const std::string networkKey = networkKeyFor(node, net);
        outcome.processes.resize(net.processes().size());
        processResults[i].resize(net.processes().size());
        std::vector<std::string> assembleDeps = {"scala"};
        for (std::size_t j = 0; j < net.processes().size(); ++j) {
            FlowDiagnostics::ProcessOutcome& po = outcome.processes[j];
            po.process = net.processes()[j].name;
            const std::string procStage = stageName + "/" + po.process;
            assembleDeps.push_back(procStage);
            stages.add(hlsStage(
                procStage, po, "process " + node.name + "/" + po.process,
                [this, &node, &net, procName = po.process, procStage] {
                    validateNodeInterface(node, net);
                    const hls::Process& p = net.process(procName);
                    return hlsKernelAttempt(p.kernel,
                                            directivesForProcess(node, net, procName),
                                            node.name + "/" + procName, procStage, node.name);
                },
                [&slot = processResults[i][j]](hls::HlsResult&& r) { slot = std::move(r); }));
        }
        stages.add(Stage{
            .name = stageName,
            .deps = std::move(assembleDeps),
            .attempt =
                [this, &node, &net, &outcome, &parts = processResults[i]](
                    const StageContext&) -> std::any {
                    // Every process stage finished (committed or absorbed)
                    // before this attempt: they precede it in topological
                    // order, like integrate's inputs.
                    std::vector<const hls::HlsResult*> ptrs;
                    ptrs.reserve(parts.size());
                    for (std::size_t j = 0; j < parts.size(); ++j) {
                        if (outcome.processes[j].degraded || !parts[j].has_value()) {
                            throw HlsError(format(
                                "network \"%s\": process \"%s\" has no synthesized "
                                "core; the node degrades as a whole",
                                node.name.c_str(), outcome.processes[j].process.c_str()));
                        }
                        ptrs.push_back(&*parts[j]);
                    }
                    return engine_.assembleNetwork(net, ptrs);
                },
            .commit =
                [&node, &outcome, &result, networkKey](std::any&& value, const StageRun&) {
                    hls::HlsResult assembled = std::any_cast<hls::HlsResult>(std::move(value));
                    outcome.artifactKey = networkKey;
                    bool allCache = !outcome.processes.empty();
                    bool anyStore = false;
                    bool allJournal = true;
                    for (const auto& po : outcome.processes) {
                        allCache = allCache && po.cacheHit;
                        anyStore = anyStore || po.storeHit;
                        allJournal = allJournal && (po.resumedFromJournal || po.cacheHit);
                        outcome.toolSeconds += po.toolSeconds;
                        outcome.attempts += po.attempts;
                    }
                    // Node-level reuse flags are the conjunction over
                    // processes: the node was "a cache hit" only if no
                    // process touched the engine.
                    outcome.cacheHit = allCache;
                    outcome.storeHit = !allCache && outcome.attempts == 0 && anyStore;
                    outcome.resumedFromJournal = outcome.storeHit && allJournal;
                    const double assemblySeconds = assembled.toolSeconds;
                    outcome.toolSeconds += assemblySeconds;
                    result.programs.emplace(node.name, assembled.program);
                    result.hlsResults.emplace(node.name, std::move(assembled));
                    return StageOutput{networkKey, assemblySeconds};
                },
            .absorbFailure = absorbHlsFailure(outcome, "node " + node.name),
            .postCommit =
                [this, &node, &outcome] {
                    if (faultHooks_.consumeCorrupt(node.name)) {
                        // The network key names no store object; corrupt
                        // the first process artifact present.
                        for (const auto& po : outcome.processes) {
                            if (store_ != nullptr && !po.artifactKey.empty() &&
                                store_->contains(po.artifactKey)) {
                                Logger::global().info("fault: corrupting stored artifact of " +
                                                      node.name + "/" + po.process);
                                store_->corruptObject(po.artifactKey);
                                break;
                            }
                        }
                    }
                },
            .trackResume = false,
        });
    }

    std::vector<std::string> integrateDeps = {"scala"};
    for (const auto& node : nodes) {
        integrateDeps.push_back("hls:" + node.name);
    }
    const auto projectToolSeconds = [](const soc::BlockDesign& design) {
        return 31.0 + 2.4 * static_cast<double>(design.instances().size());
    };
    stages.add(Stage{
        .name = "integrate",  // Vivado project generation (~50 s)
        .deps = std::move(integrateDeps),
        .attempt =
            [&](const StageContext&) -> std::any {
                std::set<std::string> degraded;
                for (const auto& outcome : outcomes) {
                    if (outcome.degraded) {
                        degraded.insert(outcome.node);
                    }
                }
                Integration integration = integrate(projectName, graph, result, degraded);
                simulateToolWait(projectToolSeconds(integration.design));
                return integration;
            },
        .commit =
            [&](std::any&& value, const StageRun&) {
                Integration integration = std::any_cast<Integration>(std::move(value));
                result.tclText = std::move(integration.tclText);
                result.design = std::move(integration.design);
                return StageOutput{digest128(result.tclText).hex(),
                                   projectToolSeconds(result.design)};
            },
    });

    if (options_.runSynthesis) {
        stages.add(Stage{
            .name = "synth",  // synthesis, implementation, bitstream
            .deps = {"integrate"},
            .attempt =
                [&](const StageContext&) -> std::any {
                    SynthOut out;
                    out.synthesis = soc::SynthesisModel{}.run(result.design);
                    out.bitstream = soc::generateBitstream(result.design, out.synthesis);
                    simulateToolWait(out.synthesis.totalSeconds());
                    return out;
                },
            .commit =
                [&](std::any&& value, const StageRun&) {
                    SynthOut synthOut = std::any_cast<SynthOut>(std::move(value));
                    result.synthesis = std::move(synthOut.synthesis);
                    result.bitstream = std::move(synthOut.bitstream);
                    return StageOutput{digest128(result.bitstream.serialize()).hex(),
                                       result.synthesis.totalSeconds()};
                },
        });
    }

    // Software generation does not wait on synthesis: the device tree
    // and the drivers need only the integrated design; boot packaging
    // waits for both inputs.
    if (options_.generateSoftware) {
        // `result.design` is written by integrate's commit, which runs
        // before every dependent stage.
        const auto deviceTreeToolSeconds = [&result] {
            return 2.5 + 0.3 * static_cast<double>(result.design.lites().size());
        };
        const auto driversToolSeconds = [&result] {
            return 2.0 + 0.5 * static_cast<double>(result.design.lites().size());
        };
        stages.add(Stage{
            .name = "devicetree",
            .deps = {"integrate"},
            .attempt =
                [&, deviceTreeToolSeconds](const StageContext&) -> std::any {
                    std::string tree = sw::DeviceTreeGenerator{}.generate(result.design);
                    simulateToolWait(deviceTreeToolSeconds());
                    return tree;
                },
            .commit =
                [&, deviceTreeToolSeconds](std::any&& value, const StageRun&) {
                    result.deviceTree = std::any_cast<std::string>(std::move(value));
                    return StageOutput{digest128(result.deviceTree).hex(),
                                       deviceTreeToolSeconds()};
                },
        });
        stages.add(Stage{
            .name = "drivers",
            .deps = {"integrate"},
            .attempt =
                [&, driversToolSeconds](const StageContext&) -> std::any {
                    auto files = sw::DriverGenerator{}.generate(result.design,
                                                                result.programs);
                    simulateToolWait(driversToolSeconds());
                    return files;
                },
            .commit =
                [&, driversToolSeconds](std::any&& value, const StageRun&) {
                    result.driverFiles =
                        std::any_cast<std::vector<sw::GeneratedFile>>(std::move(value));
                    HashStream h;
                    for (const auto& file : result.driverFiles) {
                        h.field(file.path).field(file.content);
                    }
                    return StageOutput{h.digest().hex(), driversToolSeconds()};
                },
        });
        if (options_.runSynthesis) {
            stages.add(Stage{
                .name = "boot",
                .deps = {"synth", "devicetree"},
                .attempt = [&](const StageContext&) -> std::any {
                    sw::BootImage image = sw::makeBootImage(result.design, result.bitstream,
                                                            result.deviceTree);
                    simulateToolWait(1.5);
                    return image;
                },
                .commit =
                    [&](std::any&& value, const StageRun&) {
                        result.bootImage = std::any_cast<sw::BootImage>(std::move(value));
                        return StageOutput{digest128(result.bootImage.serialize()).hex(), 1.5};
                    },
            });
        }
    }

    if (!options_.outputDir.empty()) {
        std::vector<std::string> artifactDeps = {"integrate"};
        if (options_.runSynthesis) {
            artifactDeps.push_back("synth");
        }
        if (options_.generateSoftware) {
            artifactDeps.push_back("devicetree");
            artifactDeps.push_back("drivers");
            if (options_.runSynthesis) {
                artifactDeps.push_back("boot");
            }
        }
        stages.add(Stage{
            .name = "artifacts",  // write the project directory (atomic per file)
            .deps = std::move(artifactDeps),
            .attempt =
                [&](const StageContext&) -> std::any {
                    // Every other stage has finished by now, so the
                    // report's stage table is complete but for this one.
                    std::vector<std::string> reported = stages.topologicalNames();
                    std::erase(reported, "artifacts");
                    writeArtifacts(result, table->orderedRows(reported));
                    return std::any{};
                },
            .commit =
                [&](std::any&&, const StageRun&) {
                    return StageOutput{digest128(result.dslText + result.tclText).hex()};
                },
        });
    }

    // ----- Execute.
    ExecutorConfig config;
    config.stagePolicy = options_.stagePolicy;
    config.journal = journal.has_value() ? &*journal : nullptr;
    config.scheduler = options_.stageScheduler.get();
    config.digestsAtOpen = digestsAtOpen_;
    StageGraphExecutor executor(config, &bus, &faultHooks_);

    try {
        executor.execute(stages);
    } catch (...) {
        if (trace != nullptr) {
            trace->write(options_.traceOutPath);
        }
        throw;
    }

    // ----- Assemble the diagnostics, in deterministic topological order
    // (never in completion order).
    FlowDiagnostics& diag = result.diagnostics;
    diag.nodes = std::move(outcomes);
    diag.stages = table->orderedRows(stages.topologicalNames());
    diag.stageRetries = executor.stats().stageRetries;
    diag.stageTimeouts = executor.stats().stageTimeouts;
    diag.resumedStages = executor.stats().resumedStages;
    diag.digestMismatches = executor.stats().digestMismatches;
    diag.corruptArtifacts = table->artifactRejections();
    if (diag.anyDegraded()) {
        Logger::global().info(diag.render());
    }
    if (trace != nullptr) {
        trace->write(options_.traceOutPath);
    }
    Logger::global().info(format("flow: project %s complete (%.1f simulated tool-seconds)",
                                 projectName.c_str(), diag.stageToolSeconds()));
    return result;
}

void Flow::writeArtifacts(const FlowResult& result,
                          const std::vector<FlowDiagnostics::StageOutcome>& stages) const {
    // Atomic per-file writes: a crash mid-write leaves each artifact
    // either whole (old or new) or absent, never torn.
    const std::string dir = options_.outputDir + "/" + result.projectName;
    writeFileAtomic(dir + "/" + result.projectName + ".tg", result.dslText);
    writeFileAtomic(dir + "/" + result.projectName + ".tcl", result.tclText);
    for (const auto& [name, hlsResult] : result.hlsResults) {
        writeFileAtomic(dir + "/hls/" + name + ".vhd", hlsResult.vhdl);
        writeFileAtomic(dir + "/hls/" + name + ".v", hlsResult.verilog);
        writeFileAtomic(dir + "/hls/" + name + "_directives.tcl", hlsResult.directiveText);
        writeFileAtomic(dir + "/hls/" + name + "_report.txt", hlsResult.reportText);
    }
    if (options_.runSynthesis) {
        writeFileAtomic(dir + "/" + result.projectName + ".bit",
                        result.bitstream.serialize());
        writeFileAtomic(dir + "/utilisation.txt", result.synthesis.utilisationReport());
    }
    if (options_.generateSoftware) {
        writeFileAtomic(dir + "/devicetree.dts", result.deviceTree);
        for (const auto& file : result.driverFiles) {
            writeFileAtomic(dir + "/sw/" + file.path, file.content);
        }
        if (options_.runSynthesis) {
            writeFileAtomic(dir + "/boot.bin", result.bootImage.serialize());
        }
    }
    writeFileAtomic(dir + "/design.dot", result.design.toDot());
    writeFileAtomic(dir + "/REPORT.md", renderFlowReport(result, stages));
}

} // namespace socgen::core
