#include "socgen/rtl/codegen_emit.hpp"

#include "socgen/common/env.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/subprocess.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace socgen::rtl {
namespace {

std::string u64(std::uint64_t v) {
    return std::to_string(static_cast<unsigned long long>(v));
}

std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
    return buf;
}

/// `st.v[<slot>]` — every net is one word of the flat value array.
std::string slot(std::uint32_t net) { return "st.v[" + u64(net) + "]"; }

/// The masked expression for one combinational op — textually the same
/// arithmetic as CompiledSim::evalOp, so the two compiled executors
/// cannot drift: any change must be made in both and is caught by the
/// three-way differential suite.
std::string opExpr(const CompiledOp& op) {
    const std::string a = slot(op.a);
    const std::string b = slot(op.b);
    const std::string mask = hex64(op.mask) + "ULL";
    switch (op.code) {
    case CellKind::Const: return u64(op.imm) + "ULL";
    case CellKind::Not: return "~" + a + " & " + mask;
    case CellKind::And: return "(" + a + " & " + b + ") & " + mask;
    case CellKind::Or: return "(" + a + " | " + b + ") & " + mask;
    case CellKind::Xor: return "(" + a + " ^ " + b + ") & " + mask;
    case CellKind::Add: return "(" + a + " + " + b + ") & " + mask;
    case CellKind::Sub: return "(" + a + " - " + b + ") & " + mask;
    case CellKind::Mul: return "(" + a + " * " + b + ") & " + mask;
    case CellKind::Div:
        return "(" + b + " == 0ULL ? ~0ULL : " + a + " / " + b + ") & " + mask;
    case CellKind::Mod:
        return "(" + b + " == 0ULL ? " + a + " : " + a + " % " + b + ") & " + mask;
    case CellKind::Shl:
        return "(" + b + " >= 64ULL ? 0ULL : " + a + " << " + b + ") & " + mask;
    case CellKind::Shr:
        return "(" + b + " >= 64ULL ? 0ULL : " + a + " >> " + b + ") & " + mask;
    case CellKind::Eq: return "(" + a + " == " + b + " ? 1ULL : 0ULL) & " + mask;
    case CellKind::Ne: return "(" + a + " != " + b + " ? 1ULL : 0ULL) & " + mask;
    case CellKind::Lt: return "(" + a + " < " + b + " ? 1ULL : 0ULL) & " + mask;
    case CellKind::Le: return "(" + a + " <= " + b + " ? 1ULL : 0ULL) & " + mask;
    case CellKind::Gt: return "(" + a + " > " + b + " ? 1ULL : 0ULL) & " + mask;
    case CellKind::Ge: return "(" + a + " >= " + b + " ? 1ULL : 0ULL) & " + mask;
    case CellKind::Mux:
        return "(" + a + " == 0ULL ? " + b + " : " + slot(op.c) + ") & " + mask;
    default:
        // Reachable only when a new combinational CellKind lands without
        // a case here: an internal error, never a Compiled fallback.
        throw SimulationError("codegen: cannot emit cell kind " +
                              std::string(cellKindName(op.code)));
    }
}

} // namespace

Digest128 netlistDigest(const Netlist& netlist) {
    HashStream h;
    h.field(std::string_view("socgen-netlist-v1"));
    h.field(netlist.name());
    h.field(static_cast<std::uint64_t>(netlist.nets().size()));
    for (const Net& net : netlist.nets()) {
        h.field(net.name);
        h.field(static_cast<std::uint64_t>(net.width));
        h.field(static_cast<std::uint64_t>(net.driver));
    }
    h.field(static_cast<std::uint64_t>(netlist.cells().size()));
    for (const Cell& cell : netlist.cells()) {
        h.field(cell.name);
        h.field(static_cast<std::uint64_t>(cell.kind));
        h.field(static_cast<std::uint64_t>(cell.width));
        h.field(static_cast<std::uint64_t>(cell.inputCount));
        for (const NetId id : netlist.inputs(cell)) {
            h.field(static_cast<std::uint64_t>(id));
        }
        h.field(static_cast<std::uint64_t>(cell.outputCount));
        for (const NetId id : netlist.outputs(cell)) {
            h.field(static_cast<std::uint64_t>(id));
        }
        h.field(cell.param);
    }
    h.field(static_cast<std::uint64_t>(netlist.ports().size()));
    for (const Port& port : netlist.ports()) {
        h.field(port.name);
        h.field(static_cast<std::uint64_t>(port.dir));
        h.field(static_cast<std::uint64_t>(port.width));
        h.field(static_cast<std::uint64_t>(port.net));
    }
    return h.digest();
}

CodegenUnit emitCodegenUnit(const Netlist& netlist, const CompiledProgram& prog) {
    const Digest128 digest = netlistDigest(netlist);

    // Per-Bram base offsets into the single flat mem[] array.
    std::vector<std::size_t> memOffset(prog.memDepths.size(), 0);
    std::size_t memTotal = 0;
    for (std::size_t i = 0; i < prog.memDepths.size(); ++i) {
        memOffset[i] = memTotal;
        memTotal += prog.memDepths[i];
    }

    std::string src;
    src.reserve(4096 + prog.ops.size() * 48);
    src += "// Generated simulator for netlist '" + netlist.name() + "'. Do not edit.\n";
    src += "// emitter: ";
    src += kCodegenEmitterVersion;
    src += "\n// netlist-digest: " + digest.hex() + "\n\n";

    // All-ULL storage and arithmetic: the interpreter's word type is
    // uint64_t, and on every supported platform unsigned long long is
    // exactly that — spelled out here so the extern "C" ABI needs no
    // <cstdint> agreement between host and generated code.
    src += "namespace {\n\n";
    src += "struct State {\n";
    src += "    unsigned long long v[" + u64(std::max<std::size_t>(1, prog.netCount)) +
           "];\n";
    src += "    unsigned long long s[" +
           u64(std::max<std::size_t>(1, prog.seqOps.size())) + "];\n";
    src += "    unsigned long long mem[" + u64(std::max<std::size_t>(1, memTotal)) +
           "];\n";
    src += "};\n\n";

    // One straight-line function per level band; ops within a band are
    // mutually independent, so source order (the interpreter's op order)
    // is just a canonical order, not a dependency.
    for (std::size_t level = 0; level < prog.levels.size(); ++level) {
        src += "inline void band_" + u64(level) + "(State& st) {\n";
        const auto [first, count] = prog.levels[level];
        for (std::uint32_t i = first; i < first + count; ++i) {
            const CompiledOp& op = prog.ops[i];
            src += "    " + slot(op.dst) + " = " + opExpr(op) + ";\n";
        }
        if (count == 0) {
            src += "    (void)st;\n";
        }
        src += "}\n\n";
    }

    // evaluate(): publish every sequential output (they are the sources
    // of the comb graph; deferred from the previous edge), then settle
    // all bands in level order — a full recompute reaches the same fixed
    // point the interpreter's dirty-tracking sweep does.
    src += "void evalAll(State& st) {\n";
    for (std::size_t i = 0; i < prog.seqOps.size(); ++i) {
        const CompiledSeqOp& op = prog.seqOps[i];
        src += "    " + slot(op.out) + " = st.s[" + u64(i) + "] & " + hex64(op.mask) +
               "ULL;\n";
    }
    for (std::size_t level = 0; level < prog.levels.size(); ++level) {
        src += "    band_" + u64(level) + "(st);\n";
    }
    if (prog.seqOps.empty() && prog.levels.empty()) {
        src += "    (void)st;\n";
    }
    src += "}\n\n";

    // step(): evaluate, then the clock edge — sequential updates in
    // CellId order, exactly the interpreter's sweep. A Bram address
    // overflow stops the sweep and reports (seq index, address) to the
    // host, which raises the backend-identical SimulationError; updates
    // before the fault stay applied, matching the interpreter's throw
    // point mid-sweep.
    src += "long long stepOnce(State& st, unsigned long long* faultAddr) {\n";
    src += "    evalAll(st);\n";
    bool usesFaultAddr = false;
    for (std::size_t i = 0; i < prog.seqOps.size(); ++i) {
        const CompiledSeqOp& op = prog.seqOps[i];
        const std::string si = "st.s[" + u64(i) + "]";
        const std::string mask = hex64(op.mask) + "ULL";
        switch (op.kind) {
        case CompiledSeqKind::RegAlways:
            src += "    " + si + " = " + slot(op.d) + " & " + mask + ";\n";
            break;
        case CompiledSeqKind::RegEnable:
            src += "    if (" + slot(op.en) + " != 0ULL) { " + si + " = " + slot(op.d) +
                   " & " + mask + "; }\n";
            break;
        case CompiledSeqKind::Bram: {
            usesFaultAddr = true;
            const std::string base = u64(memOffset[op.mem]);
            src += "    {\n";
            src += "        const unsigned long long addr = " + slot(op.d) + ";\n";
            src += "        if (addr >= " + u64(prog.memDepths[op.mem]) +
                   "ULL) { *faultAddr = addr; return " + u64(i) + "; }\n";
            src += "        if (" + slot(op.we) + " != 0ULL) { st.mem[" + base +
                   "ULL + addr] = " + slot(op.en) + " & " + mask + "; }\n";
            src += "        " + si + " = st.mem[" + base + "ULL + addr];\n";
            src += "    }\n";
            break;
        }
        case CompiledSeqKind::Fsm: {
            src += "    {\n";
            if (op.statusCount == 0) {
                src += "        const bool any = true;\n";
            } else {
                src += "        const bool any = ";
                for (std::uint32_t s = 0; s < op.statusCount; ++s) {
                    if (s != 0) {
                        src += " || ";
                    }
                    src += slot(prog.fsmStatus[op.statusFirst + s]) + " != 0ULL";
                }
                src += ";\n";
            }
            src += "        if (any && " + si + " + 1ULL < " +
                   u64(static_cast<std::uint64_t>(op.param)) + "ULL) { " + si + " = " +
                   si + " + 1ULL; }\n";
            src += "    }\n";
            break;
        }
        }
    }
    if (!usesFaultAddr) {
        src += "    (void)faultAddr;\n";
    }
    src += "    return -1;\n";
    src += "}\n\n";

    // reset(): zero sequential state and memories; net values stay stale
    // until the next evaluate(), mirroring both interpreters.
    src += "void resetState(State& st) {\n";
    src += "    for (unsigned long long i = 0; i < " + u64(prog.seqOps.size()) +
           "ULL; ++i) { st.s[i] = 0ULL; }\n";
    src += "    for (unsigned long long i = 0; i < " + u64(memTotal) +
           "ULL; ++i) { st.mem[i] = 0ULL; }\n";
    src += "}\n\n";
    src += "} // namespace\n\n";

    src += "extern \"C\" {\n\n";
    src += "int socgen_cg_abi(void) { return 1; }\n\n";
    src += "const char* socgen_cg_digest(void) { return \"" + digest.hex() + "\"; }\n\n";
    src += "unsigned long long socgen_cg_net_count(void) { return " +
           u64(prog.netCount) + "ULL; }\n\n";
    src += "void* socgen_cg_create(void) { return new State(); }\n\n";
    src += "void socgen_cg_destroy(void* p) { delete static_cast<State*>(p); }\n\n";
    src += "unsigned long long* socgen_cg_vals(void* p) { return "
           "static_cast<State*>(p)->v; }\n\n";
    src += "unsigned long long* socgen_cg_mem(void* p, unsigned long long idx) {\n";
    if (memOffset.empty()) {
        src += "    (void)p;\n    (void)idx;\n    return nullptr;\n";
    } else {
        src += "    State& st = *static_cast<State*>(p);\n";
        src += "    switch (idx) {\n";
        for (std::size_t i = 0; i < memOffset.size(); ++i) {
            src += "    case " + u64(i) + "ULL: return st.mem + " + u64(memOffset[i]) +
                   "ULL;\n";
        }
        src += "    default: return nullptr;\n";
        src += "    }\n";
    }
    src += "}\n\n";
    src += "void socgen_cg_eval(void* p) { evalAll(*static_cast<State*>(p)); }\n\n";
    src += "long long socgen_cg_step(void* p, unsigned long long* faultAddr) {\n";
    src += "    return stepOnce(*static_cast<State*>(p), faultAddr);\n";
    src += "}\n\n";
    src += "void socgen_cg_reset(void* p) { resetState(*static_cast<State*>(p)); }\n\n";
    src += "} // extern \"C\"\n";

    CodegenUnit unit;
    unit.sourceDigest = digest128(src);
    unit.netlistDigest = digest;
    unit.source = std::move(src);
    return unit;
}

namespace {

/// Runs `argv` with stderr merged into stdout and returns (exit status,
/// merged output). Throws SubprocessError if the binary cannot exec.
std::pair<int, std::string> runTool(const std::vector<std::string>& argv) {
    Subprocess p = Subprocess::spawn(argv);
    std::string out = p.readToEof();
    return {p.wait(), std::move(out)};
}

std::string firstLine(const std::string& text) {
    const std::size_t nl = text.find('\n');
    return nl == std::string::npos ? text : text.substr(0, nl);
}

/// Probes one candidate compiler; nullopt when it cannot run or does
/// not answer --version cleanly.
std::optional<CodegenToolchain> probeCompiler(const std::string& cxx) {
    try {
        auto [status, out] = runTool({cxx, "--version"});
        const std::optional<int> code = waitStatusExited(status);
        if (!code.has_value() || *code != 0) {
            return std::nullopt;
        }
        CodegenToolchain tc;
        tc.compiler = cxx;
        tc.identity = cxx + " " + firstLine(out);
        return tc;
    } catch (const SubprocessError&) {
        return std::nullopt;
    }
}

} // namespace

CodegenToolchain resolveCodegenToolchain() {
    // Memoized per SOCGEN_CXX value: tests flip the variable between
    // cases, so the cache key must include it, not just "resolved once".
    static std::mutex mutex;
    static std::map<std::string, std::optional<CodegenToolchain>> cache;

    const std::string envKey = envString("SOCGEN_CXX").value_or("");
    {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(envKey);
        if (it != cache.end()) {
            if (it->second.has_value()) {
                return *it->second;
            }
            throw CodegenUnavailableError(
                envKey.empty() ? "no candidate of c++/g++/clang++ answers --version"
                               : format("SOCGEN_CXX=%s is not runnable", envKey.c_str()));
        }
    }

    std::optional<CodegenToolchain> resolved;
    if (!envKey.empty()) {
        resolved = probeCompiler(envKey);
    } else {
        for (const char* candidate : {"c++", "g++", "clang++"}) {
            resolved = probeCompiler(candidate);
            if (resolved.has_value()) {
                break;
            }
        }
    }
    {
        const std::lock_guard<std::mutex> lock(mutex);
        cache[envKey] = resolved;
    }
    if (resolved.has_value()) {
        return *resolved;
    }
    throw CodegenUnavailableError(
        envKey.empty() ? "no candidate of c++/g++/clang++ answers --version"
                       : format("SOCGEN_CXX=%s is not runnable", envKey.c_str()));
}

bool codegenToolchainAvailable() {
    try {
        (void)resolveCodegenToolchain();
        return true;
    } catch (const CodegenUnavailableError&) {
        return false;
    }
}

std::string codegenArtifactKey(const CodegenUnit& unit,
                               std::string_view compilerIdentity) {
    HashStream h;
    h.field(std::string_view("socgen-codegen-key-v1"));
    h.field(kCodegenEmitterVersion);
    h.field(unit.sourceDigest.hi);
    h.field(unit.sourceDigest.lo);
    h.field(compilerIdentity);
    return h.digest().hex();
}

std::string compileSharedObject(const CodegenToolchain& toolchain,
                                const std::string& sourcePath,
                                const std::string& outPath) {
    const std::vector<std::string> argv = {toolchain.compiler, "-std=c++17", "-O2",
                                           "-fPIC", "-shared", sourcePath,
                                           "-o",    outPath};
    int status = 0;
    std::string out;
    try {
        auto [st, text] = runTool(argv);
        status = st;
        out = std::move(text);
    } catch (const SubprocessError& e) {
        throw CodegenCompileError(format("cannot run %s: %s",
                                         toolchain.compiler.c_str(), e.what()),
                                  "");
    }
    const std::optional<int> code = waitStatusExited(status);
    if (!code.has_value() || *code != 0) {
        throw CodegenCompileError(
            format("%s failed compiling %s (exit %d): %s", toolchain.compiler.c_str(),
                   sourcePath.c_str(), code.value_or(-1), out.c_str()),
            out);
    }
    return out;
}

} // namespace socgen::rtl
