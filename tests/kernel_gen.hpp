#pragma once

// Seeded random-kernel generator shared by the property tests
// (test_fuzz_properties.cpp) and the VM's differential test
// (test_hls_vm.cpp): a seed names the same kernel on every toolchain.

#include "socgen/hls/ir.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace socgen::kernelgen {

/// xorshift64* PRNG for reproducible fuzzing.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed * 2654435761u + 1) {}
    std::uint64_t next() {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545F4914F6CDD1DULL;
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t state_;
};

/// Builds a random kernel: scalar args, local vars, one constant-trip
/// loop with a random straight-line body of assignments and stream
/// writes, and a final scalar result.
inline hls::Kernel randomKernel(std::uint64_t seed) {
    using namespace hls;
    Rng rng(seed);
    KernelBuilder kb("fuzz" + std::to_string(seed));
    const PortId argA = kb.scalarIn("argA", 32);
    const PortId argB = kb.scalarIn("argB", 16);
    const PortId out = kb.streamOut("out", 32);
    const PortId res = kb.scalarOut("res", 32);

    std::vector<VarId> vars;
    const std::size_t varCount = 2 + rng.below(4);
    for (std::size_t v = 0; v < varCount; ++v) {
        vars.push_back(kb.var("v" + std::to_string(v),
                              static_cast<unsigned>(8 + 8 * rng.below(4))));
    }
    const VarId i = kb.var("i", 32);

    // Random expression over available values; bounded depth.
    const std::function<ExprId(int)> randomExpr = [&](int depth) -> ExprId {
        if (depth <= 0 || rng.below(3) == 0) {
            switch (rng.below(4)) {
            case 0: return kb.c(static_cast<std::int64_t>(rng.below(1000)));
            case 1: return kb.v(vars[rng.below(vars.size())]);
            case 2: return kb.arg(rng.below(2) == 0 ? argA : argB);
            default: return kb.v(i);
            }
        }
        static constexpr std::array<BinOp, 12> kOps{
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or,
            BinOp::Xor, BinOp::Shr, BinOp::Min, BinOp::Max, BinOp::Lt,
            BinOp::Div, BinOp::Mod};
        const BinOp op = kOps[rng.below(kOps.size())];
        ExprId lhs = randomExpr(depth - 1);
        ExprId rhs = randomExpr(depth - 1);
        if (op == BinOp::Shr) {
            rhs = kb.bin(BinOp::And, rhs, kb.c(15));  // keep shifts sane
        }
        if (op == BinOp::Div || op == BinOp::Mod) {
            rhs = kb.bin(BinOp::Max, rhs, kb.c(1));  // no division by zero
        }
        if (rng.below(5) == 0) {
            return kb.select(kb.gt(lhs, rhs), lhs, rhs);
        }
        return kb.bin(op, lhs, rhs);
    };

    // Preamble assignments.
    for (std::size_t s = 0; s < 1 + rng.below(3); ++s) {
        kb.assign(vars[rng.below(vars.size())], randomExpr(2));
    }
    // The loop.
    const std::int64_t trip = 3 + static_cast<std::int64_t>(rng.below(14));
    kb.forLoop(i, kb.c(trip));
    for (std::size_t s = 0; s < 2 + rng.below(4); ++s) {
        if (rng.below(3) == 0) {
            kb.write(out, randomExpr(2));
        } else {
            kb.assign(vars[rng.below(vars.size())], randomExpr(3));
        }
    }
    kb.write(out, kb.v(vars[rng.below(vars.size())]));
    kb.endLoop();
    kb.setResult(res, randomExpr(3));
    return kb.build();
}

} // namespace socgen::kernelgen
