#pragma once

#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/rtl/compiled_program.hpp"
#include "socgen/rtl/netlist.hpp"

#include <string>
#include <string_view>

namespace socgen::rtl {

/// Base of the generated-C++ backend's failures. Derives from
/// SimulationError (it is a simulator-construction failure): "codegen
/// cannot run here" (no compiler, compile failed, dlopen failed)
/// degrades to the compiled interpreter, which *can* run the same
/// program.
class CodegenError : public SimulationError {
public:
    explicit CodegenError(const std::string& message)
        : SimulationError("codegen: " + message) {}
};

/// No usable host C++ compiler: SOCGEN_CXX points at nothing runnable
/// and no auto-detected candidate responds to --version.
class CodegenUnavailableError : public CodegenError {
public:
    explicit CodegenUnavailableError(const std::string& message)
        : CodegenError("no host compiler: " + message) {}
};

/// The emitted translation unit failed to compile. Carries the
/// compiler's merged stdout+stderr so the diagnostic names the actual
/// error line, not just "exit status 1".
class CodegenCompileError : public CodegenError {
public:
    CodegenCompileError(const std::string& message, std::string compilerOutput)
        : CodegenError(message), compilerOutput_(std::move(compilerOutput)) {}

    [[nodiscard]] const std::string& compilerOutput() const { return compilerOutput_; }

private:
    std::string compilerOutput_;
};

/// Bump on ANY change to the emitted source or its ABI: the artifact
/// key folds this in, so stale cached shared objects can never be
/// loaded by a newer emitter.
inline constexpr std::string_view kCodegenEmitterVersion = "socgen-codegen-v1";

/// One emitted translation unit for one netlist.
struct CodegenUnit {
    std::string source;        ///< self-contained C++17, deterministic bytes
    Digest128 sourceDigest;    ///< digest of `source`
    Digest128 netlistDigest;   ///< structural digest of the input netlist
};

/// Structural digest of a netlist: name, nets, cells (kind, width,
/// pins, param), ports. Two structurally identical netlists share a
/// digest, so they share one cached shared object.
[[nodiscard]] Digest128 netlistDigest(const Netlist& netlist);

/// Emits the C++ translation unit implementing `prog` (the levelized
/// program of `netlist`): one straight-line function per level band,
/// word-packed two-state storage, the interpreter's exact operator and
/// deferred-seq-publication semantics, exported behind a small
/// extern "C" ABI (socgen_cg_*). Byte-deterministic: the same netlist
/// emits the same bytes on every run of every process.
[[nodiscard]] CodegenUnit emitCodegenUnit(const Netlist& netlist,
                                          const CompiledProgram& prog);

/// The host toolchain codegen compiles with.
struct CodegenToolchain {
    std::string compiler;  ///< executable (SOCGEN_CXX or auto-detected)
    std::string identity;  ///< path + version banner line, folded into keys
};

/// Resolves the host compiler: SOCGEN_CXX when set, otherwise the first
/// of c++ / g++ / clang++ that answers --version. The probe result is
/// memoized per SOCGEN_CXX value. Throws CodegenUnavailableError when
/// nothing is runnable.
[[nodiscard]] CodegenToolchain resolveCodegenToolchain();

/// No-throw probe for gating tests and benches.
[[nodiscard]] bool codegenToolchainAvailable();

/// Cache key of the compiled shared object: (emitter version, source
/// digest — which covers the netlist digest embedded in the source —
/// and compiler identity). 32 hex characters.
[[nodiscard]] std::string codegenArtifactKey(const CodegenUnit& unit,
                                             std::string_view compilerIdentity);

/// Compiles `sourcePath` into the shared object `outPath` and returns
/// the compiler's merged stdout+stderr. Throws CodegenCompileError
/// (message embeds the output) on a non-zero exit.
std::string compileSharedObject(const CodegenToolchain& toolchain,
                                const std::string& sourcePath,
                                const std::string& outPath);

} // namespace socgen::rtl
