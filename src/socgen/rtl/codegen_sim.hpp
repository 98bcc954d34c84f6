#pragma once

#include "socgen/rtl/compiled_program.hpp"
#include "socgen/rtl/sim_backend.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace socgen::rtl {

class CodegenModule;

/// Process-lifetime counters for the codegen pipeline, for tests and
/// benches to assert cache behaviour (e.g. warm-flow recompiles == 0).
struct CodegenStats {
    std::uint64_t sourcesEmitted = 0;  ///< translation units emitted
    std::uint64_t compiles = 0;        ///< host-compiler invocations
    std::uint64_t storeHits = 0;       ///< shared objects served from the store
    std::uint64_t registryHits = 0;    ///< modules reused already-loaded
};
[[nodiscard]] CodegenStats codegenStats();

/// Test hook: zeroes the stats and drops the in-process module registry
/// so the next CodegenSim must go back to the store (or the compiler).
/// Already-constructed simulators keep their modules alive.
void codegenTestReset();

/// Root of the shared-object cache: SOCGEN_CODEGEN_CACHE_DIR when set,
/// otherwise a fixed directory under the system temp dir. Holds the
/// BlobStore (`store/`), emitted sources (`src/`), and extracted
/// loadable objects (`lib/`).
[[nodiscard]] std::string codegenCacheDir();

/// The generated-C++ backend: the third RTL engine (DESIGN.md §15).
/// Construction emits a C++ translation unit from the netlist's
/// levelized program, compiles it with the host toolchain, and dlopens
/// the shared object — with the object cached in a digest-verified
/// BlobStore keyed by (emitter version, source digest, compiler
/// identity), so a warm process pays one dlopen and a warm machine pays
/// zero recompiles. The hot path then runs native straight-line code:
/// no per-op dispatch, no operand indirection.
///
/// Construction throws CodegenUnavailableError (no host compiler),
/// CodegenCompileError (emitted TU rejected) or CodegenError (bad
/// module). makeSimulator(SimBackend::Codegen) catches these and
/// degrades Codegen → Compiled; constructing CodegenSim directly is the
/// strict, no-fallback form.
class CodegenSim final : public Simulator {
public:
    explicit CodegenSim(const Netlist& netlist);
    ~CodegenSim() override;

    CodegenSim(const CodegenSim&) = delete;
    CodegenSim& operator=(const CodegenSim&) = delete;

    [[nodiscard]] std::string_view backendName() const override { return "codegen"; }
    void setInput(std::string_view port, std::uint64_t value) override;
    void evaluate() override;
    void step() override;
    [[nodiscard]] std::uint64_t output(std::string_view port) const override;
    [[nodiscard]] std::uint64_t netValue(NetId id) const override;
    [[nodiscard]] std::vector<std::uint64_t> memoryContents(CellId id) const override;
    void reset() override;
    [[nodiscard]] std::uint64_t cycleCount() const override { return cycles_; }

    /// The shared object's cache key (32 hex chars).
    [[nodiscard]] const std::string& artifactKey() const;

private:
    const Netlist& netlist_;
    CompiledProgram prog_;
    std::shared_ptr<CodegenModule> module_;
    void* state_ = nullptr;
    unsigned long long* vals_ = nullptr;  ///< flat net array inside the module
    std::uint64_t cycles_ = 0;
};

} // namespace socgen::rtl
