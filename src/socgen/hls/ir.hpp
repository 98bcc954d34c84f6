#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace socgen::hls {

/// The kernel intermediate representation consumed by the HLS engine.
///
/// In the paper, each hardware node comes with "a synthesizable C/C++
/// description compliant with Vivado HLS". We do not parse C; instead a
/// kernel is constructed with KernelBuilder as a small structured program
/// (scalars, arrays, counted loops, ifs, stream reads/writes). The same
/// IR is (a) scheduled/bound/lowered to RTL by the engine and (b)
/// executed by the bytecode interpreter inside the SoC simulator, so a
/// generated system computes real results with schedule-derived timing.

using ExprId = std::uint32_t;
using StmtId = std::uint32_t;
using VarId = std::uint32_t;
using ArrayId = std::uint32_t;
using PortId = std::uint32_t;
inline constexpr std::uint32_t kNoId = 0xffffffffU;

/// How a kernel port is exposed to the system (paper Section III: `i` =
/// AXI-Lite memory-mapped, `is` = AXI-Stream).
enum class PortKind {
    ScalarIn,   ///< AXI-Lite write-register argument
    ScalarOut,  ///< AXI-Lite read-register result ("return" in Listing 2)
    StreamIn,   ///< AXI-Stream slave
    StreamOut,  ///< AXI-Stream master
};

[[nodiscard]] std::string_view portKindName(PortKind kind);
[[nodiscard]] bool isStreamPort(PortKind kind);

struct KernelPort {
    std::string name;
    PortKind kind = PortKind::ScalarIn;
    unsigned width = 32;
};

struct KernelVar {
    std::string name;
    unsigned width = 32;
};

struct KernelArray {
    std::string name;
    std::size_t depth = 0;
    unsigned width = 32;
};

enum class BinOp {
    Add, Sub, Mul, Div, Mod,
    And, Or, Xor, Shl, Shr,
    Eq, Ne, Lt, Le, Gt, Ge,
    Min, Max,
};
enum class UnOp { Not, Neg };

[[nodiscard]] std::string_view binOpName(BinOp op);

enum class ExprKind {
    Const,       ///< value
    Var,         ///< var
    Arg,         ///< port (ScalarIn)
    ArrayLoad,   ///< array, a = index
    StreamRead,  ///< port (StreamIn); side-effecting, at most one per statement
    Unary,       ///< uop, a
    Binary,      ///< bop, a, b
    Select,      ///< a = cond, b = when-nonzero, c = when-zero
};

struct Expr {
    ExprKind kind = ExprKind::Const;
    std::int64_t value = 0;   ///< Const
    BinOp bop = BinOp::Add;
    UnOp uop = UnOp::Not;
    VarId var = kNoId;
    PortId port = kNoId;
    ArrayId array = kNoId;
    ExprId a = kNoId;
    ExprId b = kNoId;
    ExprId c = kNoId;
};

enum class StmtKind {
    Assign,       ///< var = expr
    ArrayStore,   ///< array[index] = value
    StreamWrite,  ///< port <- value
    SetResult,    ///< ScalarOut port <- value
    For,          ///< for (var = 0; var < bound; ++var) body
    If,           ///< if (cond) then else
};

struct Stmt {
    StmtKind kind = StmtKind::Assign;
    VarId var = kNoId;
    PortId port = kNoId;
    ArrayId array = kNoId;
    ExprId index = kNoId;   ///< ArrayStore index
    ExprId value = kNoId;   ///< Assign/ArrayStore/StreamWrite/SetResult value; For bound; If cond
    std::vector<StmtId> body;      ///< For body / If then-branch
    std::vector<StmtId> elseBody;  ///< If else-branch
};

/// A complete kernel: signature (ports), locals, and a structured body.
/// Construct via KernelBuilder; validate with hls::verify().
class Kernel {
public:
    explicit Kernel(std::string name) : name_(std::move(name)) {}

    [[nodiscard]] const std::string& name() const { return name_; }

    [[nodiscard]] const std::vector<KernelPort>& ports() const { return ports_; }
    [[nodiscard]] const std::vector<KernelVar>& vars() const { return vars_; }
    [[nodiscard]] const std::vector<KernelArray>& arrays() const { return arrays_; }
    [[nodiscard]] const std::vector<Expr>& exprs() const { return exprs_; }
    [[nodiscard]] const std::vector<Stmt>& stmts() const { return stmts_; }
    [[nodiscard]] const std::vector<StmtId>& body() const { return body_; }

    [[nodiscard]] const KernelPort& port(PortId id) const;
    [[nodiscard]] const Expr& expr(ExprId id) const;
    [[nodiscard]] const Stmt& stmt(StmtId id) const;

    /// Port lookup by name; throws HlsError if absent.
    [[nodiscard]] PortId portId(std::string_view name) const;
    [[nodiscard]] bool hasPort(std::string_view name) const;

    /// Total statement count including nested bodies (proxy for kernel
    /// complexity; feeds the deterministic tool-time model).
    [[nodiscard]] std::size_t statementCount() const;

private:
    friend class KernelBuilder;

    std::string name_;
    std::vector<KernelPort> ports_;
    std::vector<KernelVar> vars_;
    std::vector<KernelArray> arrays_;
    std::vector<Expr> exprs_;
    std::vector<Stmt> stmts_;
    std::vector<StmtId> body_;
};

/// Fluent builder for Kernel bodies. Loops/ifs are built with explicit
/// scope helpers:
///
///   KernelBuilder kb("histogram");
///   auto px  = kb.streamIn("grayScaleImage", 8);
///   auto out = kb.streamOut("histogram", 32);
///   auto n   = kb.scalarIn("npixels", 32);
///   auto h   = kb.array("hist", 256, 32);
///   auto i   = kb.var("i", 32);
///   kb.forLoop(i, kb.arg(n));
///     kb.arrayStore(h, kb.read(px), ...);
///   kb.endLoop();
class KernelBuilder {
public:
    explicit KernelBuilder(std::string name) : kernel_(std::move(name)) {}

    // -- signature ---------------------------------------------------------
    PortId scalarIn(std::string name, unsigned width = 32);
    PortId scalarOut(std::string name, unsigned width = 32);
    PortId streamIn(std::string name, unsigned width = 32);
    PortId streamOut(std::string name, unsigned width = 32);
    VarId var(std::string name, unsigned width = 32);
    ArrayId array(std::string name, std::size_t depth, unsigned width = 32);

    // -- expressions -------------------------------------------------------
    ExprId c(std::int64_t value);                       ///< constant
    ExprId v(VarId var);                                ///< variable read
    ExprId arg(PortId port);                            ///< scalar argument
    ExprId load(ArrayId array, ExprId index);
    ExprId read(PortId streamInPort);                   ///< blocking stream read
    ExprId un(UnOp op, ExprId a);
    ExprId bin(BinOp op, ExprId a, ExprId b);
    ExprId select(ExprId cond, ExprId whenNonZero, ExprId whenZero);

    ExprId add(ExprId a, ExprId b) { return bin(BinOp::Add, a, b); }
    ExprId sub(ExprId a, ExprId b) { return bin(BinOp::Sub, a, b); }
    ExprId mul(ExprId a, ExprId b) { return bin(BinOp::Mul, a, b); }
    ExprId div(ExprId a, ExprId b) { return bin(BinOp::Div, a, b); }
    ExprId mod(ExprId a, ExprId b) { return bin(BinOp::Mod, a, b); }
    ExprId shr(ExprId a, ExprId b) { return bin(BinOp::Shr, a, b); }
    ExprId shl(ExprId a, ExprId b) { return bin(BinOp::Shl, a, b); }
    ExprId lt(ExprId a, ExprId b) { return bin(BinOp::Lt, a, b); }
    ExprId le(ExprId a, ExprId b) { return bin(BinOp::Le, a, b); }
    ExprId gt(ExprId a, ExprId b) { return bin(BinOp::Gt, a, b); }
    ExprId ge(ExprId a, ExprId b) { return bin(BinOp::Ge, a, b); }
    ExprId eq(ExprId a, ExprId b) { return bin(BinOp::Eq, a, b); }
    ExprId ne(ExprId a, ExprId b) { return bin(BinOp::Ne, a, b); }

    // -- statements (appended to the innermost open scope) ------------------
    void assign(VarId var, ExprId value);
    void arrayStore(ArrayId array, ExprId index, ExprId value);
    void write(PortId streamOutPort, ExprId value);
    void setResult(PortId scalarOutPort, ExprId value);

    void forLoop(VarId inductionVar, ExprId bound);
    void endLoop();
    void ifBegin(ExprId cond);
    void elseBegin();
    void endIf();

    /// Finalizes and validates the kernel; the builder must not be reused.
    [[nodiscard]] Kernel build();

private:
    ExprId addExpr(Expr expr);
    StmtId addStmt(Stmt stmt);
    std::vector<StmtId>& currentBlock();

    struct Scope {
        StmtId stmt;
        bool inElse = false;
    };

    Kernel kernel_;
    std::vector<Scope> scopes_;
    bool built_ = false;
};

} // namespace socgen::hls
