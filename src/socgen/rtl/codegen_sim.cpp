#include "socgen/rtl/codegen_sim.hpp"

#include "socgen/common/blob_store.hpp"
#include "socgen/common/env.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/rtl/codegen_emit.hpp"

#include <filesystem>
#include <map>
#include <mutex>
#include <utility>

#include <dlfcn.h>
#include <unistd.h>

namespace socgen::rtl {
namespace {

/// Objects in the shared-object store carry their own magic so a file
/// renamed in from the HLS artifact store fails validation.
constexpr const char* kSoStoreMagic = "SOCGENSO1";

} // namespace

/// One loaded shared object: the dlopen handle plus its resolved
/// extern "C" entry points. Shared by every CodegenSim of the same
/// (netlist, compiler) in this process via the module registry; the
/// handle is dlclosed only when the last simulator using it is gone.
class CodegenModule {
public:
    CodegenModule(void* handle, std::string key) : handle_(handle), key_(std::move(key)) {}

    ~CodegenModule() {
        if (handle_ != nullptr) {
            ::dlclose(handle_);
        }
    }

    CodegenModule(const CodegenModule&) = delete;
    CodegenModule& operator=(const CodegenModule&) = delete;

    using AbiFn = int (*)();
    using DigestFn = const char* (*)();
    using NetCountFn = unsigned long long (*)();
    using CreateFn = void* (*)();
    using DestroyFn = void (*)(void*);
    using ValsFn = unsigned long long* (*)(void*);
    using MemFn = unsigned long long* (*)(void*, unsigned long long);
    using EvalFn = void (*)(void*);
    using StepFn = long long (*)(void*, unsigned long long*);
    using ResetFn = void (*)(void*);

    AbiFn abi = nullptr;
    DigestFn digest = nullptr;
    NetCountFn netCount = nullptr;
    CreateFn create = nullptr;
    DestroyFn destroy = nullptr;
    ValsFn vals = nullptr;
    MemFn mem = nullptr;
    EvalFn eval = nullptr;
    StepFn step = nullptr;
    ResetFn reset = nullptr;

    [[nodiscard]] const std::string& key() const { return key_; }

private:
    void* handle_ = nullptr;
    std::string key_;
};

namespace {

std::mutex g_mutex;
CodegenStats g_stats;
std::map<std::string, std::shared_ptr<CodegenModule>> g_registry;

template <typename Fn>
Fn resolveSymbol(void* handle, const char* name) {
    // dlsym legitimately returns function pointers through void*; the
    // union-free cast below is the POSIX-sanctioned idiom.
    void* sym = ::dlsym(handle, name);
    if (sym == nullptr) {
        throw CodegenError(format("shared object lacks symbol %s", name));
    }
    return reinterpret_cast<Fn>(sym);
}

std::shared_ptr<CodegenModule> openModule(const std::string& libPath,
                                          const std::string& key) {
    // RTLD_LOCAL: every generated object exports the same socgen_cg_*
    // names, so symbols must never enter the global namespace where a
    // second netlist's module would alias the first.
    void* handle = ::dlopen(libPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        const char* why = ::dlerror();
        throw CodegenError(format("dlopen %s: %s", libPath.c_str(),
                                  why != nullptr ? why : "unknown error"));
    }
    auto module = std::make_shared<CodegenModule>(handle, key);
    module->abi = resolveSymbol<CodegenModule::AbiFn>(handle, "socgen_cg_abi");
    module->digest = resolveSymbol<CodegenModule::DigestFn>(handle, "socgen_cg_digest");
    module->netCount =
        resolveSymbol<CodegenModule::NetCountFn>(handle, "socgen_cg_net_count");
    module->create = resolveSymbol<CodegenModule::CreateFn>(handle, "socgen_cg_create");
    module->destroy =
        resolveSymbol<CodegenModule::DestroyFn>(handle, "socgen_cg_destroy");
    module->vals = resolveSymbol<CodegenModule::ValsFn>(handle, "socgen_cg_vals");
    module->mem = resolveSymbol<CodegenModule::MemFn>(handle, "socgen_cg_mem");
    module->eval = resolveSymbol<CodegenModule::EvalFn>(handle, "socgen_cg_eval");
    module->step = resolveSymbol<CodegenModule::StepFn>(handle, "socgen_cg_step");
    module->reset = resolveSymbol<CodegenModule::ResetFn>(handle, "socgen_cg_reset");
    if (module->abi() != 1) {
        throw CodegenError(format("shared object %s has ABI %d, host expects 1",
                                  libPath.c_str(), module->abi()));
    }
    return module;
}

/// Emits, compiles (or fetches), loads, and cross-checks the module for
/// one netlist. The single lock serializes compiles within the process —
/// N simulators over one netlist pay one compile, not N.
std::shared_ptr<CodegenModule> acquireModule(const Netlist& netlist,
                                             const CompiledProgram& prog) {
    const CodegenUnit unit = emitCodegenUnit(netlist, prog);
    const CodegenToolchain toolchain = resolveCodegenToolchain();
    const std::string key = codegenArtifactKey(unit, toolchain.identity);

    const std::lock_guard<std::mutex> lock(g_mutex);
    ++g_stats.sourcesEmitted;
    const auto it = g_registry.find(key);
    if (it != g_registry.end()) {
        ++g_stats.registryHits;
        return it->second;
    }

    const std::string cacheDir = codegenCacheDir();
    const BlobStore store(cacheDir + "/store", kSoStoreMagic);
    const std::string libPath = cacheDir + "/lib/" + key + ".so";

    std::optional<std::string> soBytes = store.load(key);
    if (soBytes.has_value()) {
        ++g_stats.storeHits;
        writeFileAtomic(libPath, *soBytes);
    } else {
        // Cold path: compile to a private temp name, persist the bytes in
        // the digest-verified store, then publish the loadable object by
        // rename — so a crash mid-compile never leaves a torn .so where
        // dlopen looks, and a corrupted store object (quarantined by
        // load() above) is transparently rebuilt here.
        const std::string srcPath = cacheDir + "/src/" + key + ".cpp";
        writeFileAtomic(srcPath, unit.source);
        // The compiler cannot create lib/ itself (the warm path gets it
        // for free from writeFileAtomic).
        std::error_code mkdirEc;
        std::filesystem::create_directories(cacheDir + "/lib", mkdirEc);
        const std::string buildPath =
            libPath + ".build" + std::to_string(static_cast<long>(::getpid()));
        (void)compileSharedObject(toolchain, srcPath, buildPath);
        ++g_stats.compiles;
        const std::string bytes = readTextFile(buildPath);
        store.store(key, bytes);
        std::error_code ec;
        std::filesystem::rename(buildPath, libPath, ec);
        if (ec) {
            throw CodegenError(format("publishing %s: %s", libPath.c_str(),
                                      ec.message().c_str()));
        }
    }

    std::shared_ptr<CodegenModule> module = openModule(libPath, key);
    // Cross-check the loaded code against the netlist we are about to
    // drive through it: a key collision or a tampered lib/ extraction
    // must fail loudly, not simulate the wrong design.
    if (std::string(module->digest()) != unit.netlistDigest.hex()) {
        throw CodegenError(format("shared object %s was generated for netlist digest "
                                  "%s, expected %s",
                                  libPath.c_str(), module->digest(),
                                  unit.netlistDigest.hex().c_str()));
    }
    if (module->netCount() != prog.netCount) {
        throw CodegenError(format("shared object %s models %llu nets, expected %zu",
                                  libPath.c_str(), module->netCount(), prog.netCount));
    }
    g_registry.emplace(key, module);
    return module;
}

} // namespace

CodegenStats codegenStats() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    return g_stats;
}

void codegenTestReset() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_stats = CodegenStats{};
    g_registry.clear();
}

std::string codegenCacheDir() {
    if (const std::optional<std::string> dir = envString("SOCGEN_CODEGEN_CACHE_DIR");
        dir.has_value()) {
        return *dir;
    }
    return (std::filesystem::temp_directory_path() / "socgen-codegen").string();
}

CodegenSim::CodegenSim(const Netlist& netlist)
    : netlist_(netlist), prog_(compileProgram(netlist)) {
    module_ = acquireModule(netlist_, prog_);
    state_ = module_->create();
    vals_ = module_->vals(state_);
}

CodegenSim::~CodegenSim() {
    if (state_ != nullptr) {
        module_->destroy(state_);
    }
}

const std::string& CodegenSim::artifactKey() const { return module_->key(); }

void CodegenSim::setInput(std::string_view port, std::uint64_t value) {
    const auto it = prog_.portsByName.find(port);
    const Port& p = it != prog_.portsByName.end() ? *it->second : netlist_.port(port);
    if (p.dir != PortDir::In) {
        throw SimulationError(format("cannot drive output port '%s'",
                                     std::string(port).c_str()));
    }
    vals_[p.net] = value & compiledMaskForWidth(p.width);
}

void CodegenSim::evaluate() { module_->eval(state_); }

void CodegenSim::step() {
    unsigned long long faultAddr = 0;
    const long long fault = module_->step(state_, &faultAddr);
    if (fault >= 0) {
        const CompiledSeqOp& op = prog_.seqOps[static_cast<std::size_t>(fault)];
        throw SimulationError(format("bram '%s' address %zu out of range %zu",
                                     netlist_.cell(op.cell).name.c_str(),
                                     static_cast<std::size_t>(faultAddr),
                                     prog_.memDepths[op.mem]));
    }
    ++cycles_;
}

std::uint64_t CodegenSim::output(std::string_view port) const {
    const auto it = prog_.portsByName.find(port);
    const Port& p = it != prog_.portsByName.end() ? *it->second : netlist_.port(port);
    return vals_[p.net];
}

std::uint64_t CodegenSim::netValue(NetId id) const {
    require(id < prog_.netCount, "net id out of range");
    return vals_[id];
}

std::vector<std::uint64_t> CodegenSim::memoryContents(CellId id) const {
    require(id < netlist_.cells().size(), "cell id out of range");
    for (const CompiledSeqOp& op : prog_.seqOps) {
        if (op.cell == id && op.kind == CompiledSeqKind::Bram) {
            const unsigned long long* base = module_->mem(state_, op.mem);
            const std::size_t depth = prog_.memDepths[op.mem];
            return std::vector<std::uint64_t>(base, base + depth);
        }
    }
    return {};
}

void CodegenSim::reset() {
    module_->reset(state_);
    cycles_ = 0;
}

} // namespace socgen::rtl
