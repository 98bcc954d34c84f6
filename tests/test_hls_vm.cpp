#include "kernel_gen.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/common/error.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/hls/interpreter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <stdexcept>

namespace socgen::hls {
namespace {

/// Vector-backed test harness for running kernels without a SoC.
class VectorIo : public KernelIo {
public:
    std::map<PortId, std::uint64_t> args;
    std::map<PortId, std::uint64_t> results;
    std::map<PortId, std::deque<std::uint64_t>> inputs;
    std::map<PortId, std::vector<std::uint64_t>> outputs;
    std::size_t outputCapacity = SIZE_MAX;

    std::uint64_t argValue(PortId port) override { return args[port]; }
    void setResult(PortId port, std::uint64_t value) override { results[port] = value; }
    bool streamRead(PortId port, std::uint64_t& value) override {
        auto& queue = inputs[port];
        if (queue.empty()) {
            return false;
        }
        value = queue.front();
        queue.pop_front();
        return true;
    }
    bool streamWrite(PortId port, std::uint64_t value) override {
        auto& sink = outputs[port];
        if (sink.size() >= outputCapacity) {
            return false;
        }
        sink.push_back(value);
        return true;
    }
};

struct RunResult {
    std::uint64_t cycles = 0;
    std::uint64_t stalls = 0;
};

RunResult runToCompletion(const Program& program, VectorIo& io,
                          std::uint64_t maxCycles = 10'000'000) {
    KernelVm vm(program, io);
    vm.start();
    std::uint64_t guard = 0;
    while (vm.running()) {
        vm.tick();
        if (++guard > maxCycles) {
            throw SimulationError("kernel did not finish");
        }
    }
    return RunResult{vm.cycles(), vm.stallCycles()};
}

Program compile(const Kernel& kernel, Directives d = {}) {
    return compileKernel(kernel, scheduleKernel(kernel, d));
}

TEST(Vm, AddKernelComputesSum) {
    const Kernel k = apps::makeAddKernel();
    const Program p = compile(k);
    VectorIo io;
    io.args[k.portId("A")] = 19;
    io.args[k.portId("B")] = 23;
    runToCompletion(p, io);
    EXPECT_EQ(io.results[k.portId("return")], 42u);
}

TEST(Vm, MulKernelMasksToWidth) {
    const Kernel k = apps::makeMulKernel();
    const Program p = compile(k);
    VectorIo io;
    io.args[k.portId("A")] = 0x80000000ull;
    io.args[k.portId("B")] = 2;
    runToCompletion(p, io);
    EXPECT_EQ(io.results[k.portId("return")], 0u);  // 33rd bit truncated
}

TEST(Vm, GaussMatchesReference) {
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 200; ++i) {
        input.push_back(static_cast<std::uint8_t>((i * 37 + 11) % 256));
    }
    const Kernel k = apps::makeGaussKernel(static_cast<std::int64_t>(input.size()));
    const Program p = compile(k);
    VectorIo io;
    for (auto v : input) {
        io.inputs[k.portId("in")].push_back(v);
    }
    runToCompletion(p, io);
    const auto expected = apps::gaussRef(input);
    const auto& actual = io.outputs[k.portId("out")];
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << "at " << i;
    }
}

TEST(Vm, EdgeMatchesReference) {
    std::vector<std::uint8_t> input{0, 10, 250, 250, 3, 77, 76, 255, 0};
    const Kernel k = apps::makeEdgeKernel(static_cast<std::int64_t>(input.size()));
    const Program p = compile(k);
    VectorIo io;
    for (auto v : input) {
        io.inputs[k.portId("in")].push_back(v);
    }
    runToCompletion(p, io);
    const auto expected = apps::edgeRef(input);
    const auto& actual = io.outputs[k.portId("out")];
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << "at " << i;
    }
}

TEST(Vm, HistogramMatchesReference) {
    apps::GrayImage img(16, 16);
    for (unsigned i = 0; i < img.pixelCount(); ++i) {
        img.pixels()[i] = static_cast<std::uint8_t>((i * i) % 251);
    }
    const auto expected = apps::histogramRef(img);
    const Kernel k = apps::makeHistogramKernel(static_cast<std::int64_t>(img.pixelCount()));
    const Program p = compile(k);
    VectorIo io;
    for (auto v : img.pixels()) {
        io.inputs[k.portId("grayScaleImage")].push_back(v);
    }
    runToCompletion(p, io);
    const auto& actual = io.outputs[k.portId("histogram")];
    ASSERT_EQ(actual.size(), 256u);
    for (std::size_t i = 0; i < 256; ++i) {
        EXPECT_EQ(actual[i], expected[i]) << "bin " << i;
    }
}

class OtsuVmVectors : public testing::TestWithParam<std::uint64_t> {};

TEST_P(OtsuVmVectors, ThresholdMatchesReference) {
    const apps::GrayImage img = apps::makeSyntheticGrayScene(32, 32, GetParam());
    const auto hist = apps::histogramRef(img);
    const std::uint32_t expected = apps::otsuThresholdRef(hist, img.pixelCount());

    const Kernel k = apps::makeOtsuKernel(static_cast<std::int64_t>(img.pixelCount()));
    const Program p = compile(k, apps::otsuDirectives());
    VectorIo io;
    for (auto v : hist) {
        io.inputs[k.portId("histogram")].push_back(v);
    }
    runToCompletion(p, io);
    const auto& actual = io.outputs[k.portId("probability")];
    ASSERT_EQ(actual.size(), 1u);
    EXPECT_EQ(actual[0], expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OtsuVmVectors, testing::Values(1u, 7u, 42u, 99u, 1234u));

TEST(Vm, BinarizationReadsThresholdFirst) {
    const Kernel k = apps::makeBinarizationKernel(6);
    const Program p = compile(k);
    VectorIo io;
    io.inputs[k.portId("otsuThreshold")].push_back(100);
    for (std::uint64_t v : {5ull, 100ull, 101ull, 255ull, 0ull, 200ull}) {
        io.inputs[k.portId("grayScaleImage")].push_back(v);
    }
    runToCompletion(p, io);
    const auto& out = io.outputs[k.portId("segmentedGrayImage")];
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 0, 255, 255, 0, 255}));
}

TEST(Vm, StallsWhenInputMissing) {
    const Kernel k = apps::makeEdgeKernel(4);
    const Program p = compile(k);
    VectorIo io;  // no input data at all
    KernelVm vm(p, io);
    vm.start();
    for (int i = 0; i < 50; ++i) {
        vm.tick();
    }
    EXPECT_TRUE(vm.running());
    EXPECT_GT(vm.stallCycles(), 0u);
    // Provide the data; the kernel finishes.
    for (std::uint64_t v : {1ull, 2ull, 3ull, 4ull}) {
        io.inputs[k.portId("in")].push_back(v);
    }
    std::uint64_t guard = 0;
    while (vm.running() && ++guard < 10000) {
        vm.tick();
    }
    EXPECT_TRUE(vm.finished());
    EXPECT_EQ(io.outputs[k.portId("out")].size(), 4u);
}

TEST(Vm, BackpressureOnFullOutput) {
    const Kernel k = apps::makeEdgeKernel(8);
    const Program p = compile(k);
    VectorIo io;
    io.outputCapacity = 2;
    for (int i = 0; i < 8; ++i) {
        io.inputs[k.portId("in")].push_back(static_cast<std::uint64_t>(i));
    }
    KernelVm vm(p, io);
    vm.start();
    for (int i = 0; i < 200; ++i) {
        vm.tick();
    }
    EXPECT_TRUE(vm.running());  // blocked on the full output
    EXPECT_EQ(io.outputs[k.portId("out")].size(), 2u);
    io.outputCapacity = SIZE_MAX;
    std::uint64_t guard = 0;
    while (vm.running() && ++guard < 10000) {
        vm.tick();
    }
    EXPECT_EQ(io.outputs[k.portId("out")].size(), 8u);
}

TEST(Vm, CycleCountTracksScheduleIi) {
    // The gauss loop is paced by its scheduled II: total cycles must be at
    // least trip * II and not wildly more (inputs are all available).
    const std::int64_t n = 500;
    const Kernel k = apps::makeGaussKernel(n);
    const KernelSchedule s = scheduleKernel(k, Directives{});
    const Program p = compileKernel(k, s);
    VectorIo io;
    for (std::int64_t i = 0; i < n; ++i) {
        io.inputs[k.portId("in")].push_back(7);
    }
    const RunResult r = runToCompletion(p, io);
    ASSERT_EQ(s.loops.size(), 1u);
    const std::int64_t ii = s.loops[0].ii;
    EXPECT_GE(r.cycles, static_cast<std::uint64_t>(n * ii));
    EXPECT_LE(r.cycles, static_cast<std::uint64_t>(n * ii + s.loops[0].body.length + 16));
}

TEST(Vm, ArraysPersistAcrossInvocations) {
    // BRAM contents survive ap_start (hardware behaviour): the histogram
    // kernel clears its table explicitly, so two runs agree.
    const Kernel k = apps::makeHistogramKernel(8);
    const Program p = compile(k);
    VectorIo io;
    KernelVm vm(p, io);
    for (int run = 0; run < 2; ++run) {
        io.outputs.clear();
        for (int i = 0; i < 8; ++i) {
            io.inputs[k.portId("grayScaleImage")].push_back(3);
        }
        vm.start();
        std::uint64_t guard = 0;
        while (vm.running() && ++guard < 100000) {
            vm.tick();
        }
        EXPECT_EQ(io.outputs[k.portId("histogram")][3], 8u) << "run " << run;
    }
}

TEST(Vm, OutOfBoundsArrayAccessThrows) {
    KernelBuilder kb("oob");
    const PortId out = kb.streamOut("out", 32);
    const ArrayId arr = kb.array("arr", 4, 32);
    kb.write(out, kb.load(arr, kb.c(9)));
    const Kernel k = kb.build();
    const Program p = compile(k);
    VectorIo io;
    KernelVm vm(p, io);
    vm.start();
    EXPECT_THROW(
        {
            for (int i = 0; i < 10 && vm.running(); ++i) {
                vm.tick();
            }
        },
        SimulationError);
}

TEST(Vm, LoopWithoutCostThrows) {
    // Two hand-made loops of three instructions and no Cost: one starts
    // with LoadConst then Bin, the other with a compare then JumpIfZero.
    // 2^20 is one more than a multiple of 3, so the guard fires after the
    // first instruction of a pair: the count is of executed instructions,
    // however they are dispatched.
    const std::vector<std::vector<Instr>> loops{
        {Instr{.op = Opcode::LoadConst, .dst = 0, .imm = 1},
         Instr{.op = Opcode::Bin, .bop = BinOp::Add, .dst = 1, .a = 1, .b = 0},
         Instr{.op = Opcode::Jump, .target = 0}},
        {Instr{.op = Opcode::Bin, .bop = BinOp::Eq, .dst = 0, .a = 1, .b = 1},
         Instr{.op = Opcode::JumpIfZero, .a = 0, .target = 0},
         Instr{.op = Opcode::Jump, .target = 0}},
    };
    for (const std::vector<Instr>& loop : loops) {
        Program p;
        p.kernelName = "spin";
        p.instrs = loop;
        p.registerCount = 2;
        VectorIo io;
        KernelVm vm(p, io);
        vm.start();
        try {
            vm.tick();
            FAIL() << "expected the missing-Cost guard to fire";
        } catch (const SimulationError& e) {
            EXPECT_NE(std::string(e.what()).find("kernel spin: executed 1048576 instructions "
                                                 "without consuming a cycle (missing Cost?)"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(vm.instructionsExecuted(), std::uint64_t{1} << 20);
        EXPECT_EQ(vm.pc(), 1u);
        EXPECT_EQ(vm.cycles(), 1u);
    }
}

// ---------------------------------------------------------------------------
// Differential test of the pre-decoded VM against Program::instrs run one by
// one with a plain switch.

/// The reference: executes Program::instrs one instruction at a time with a
/// plain switch over Opcode and BinOp, masking every register write by its
/// variable's width. Plain kernels only.
class ReferenceVm {
public:
    ReferenceVm(const Program& program, KernelIo& io)
        : program_(program), io_(io), regs_(program.registerCount, 0) {
        for (const ArraySpec& spec : program.arrays) {
            arrays_.emplace_back(spec.depth, 0);
        }
    }

    void start() {
        std::fill(regs_.begin(), regs_.end(), 0);
        pc_ = 0;
        waitCycles_ = 0;
        running_ = true;
    }

    [[nodiscard]] bool running() const { return running_; }
    [[nodiscard]] std::uint64_t pendingWait() const {
        return running_ && waitCycles_ > 0 ? static_cast<std::uint64_t>(waitCycles_) : 0;
    }
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
    [[nodiscard]] std::uint64_t stallCycles() const { return stalls_; }
    [[nodiscard]] std::uint64_t instructionsExecuted() const { return executed_; }
    [[nodiscard]] const std::vector<std::uint64_t>& array(ArrayId id) const {
        return arrays_[id];
    }

    bool tick() {
        if (!running_) {
            return false;
        }
        ++cycles_;
        if (waitCycles_ > 0) {
            --waitCycles_;
            return true;
        }
        for (;;) {
            const Instr& in = program_.instrs[pc_];
            switch (in.op) {
            case Opcode::LoadConst: write(in.dst, static_cast<std::uint64_t>(in.imm)); break;
            case Opcode::Move: write(in.dst, regs_[in.a]); break;
            case Opcode::LoadArg: write(in.dst, io_.argValue(in.port)); break;
            case Opcode::Bin: write(in.dst, bin(in.bop, regs_[in.a], regs_[in.b])); break;
            case Opcode::Un:
                write(in.dst, in.uop == UnOp::Not ? ~regs_[in.a] : 0 - regs_[in.a]);
                break;
            case Opcode::Select:
                write(in.dst, regs_[in.a] != 0 ? regs_[in.b] : regs_[in.c]);
                break;
            case Opcode::ArrayLoad:
                regs_[in.dst] = arrays_[in.array].at(static_cast<std::size_t>(regs_[in.a]));
                break;
            case Opcode::ArrayStore:
                arrays_[in.array].at(static_cast<std::size_t>(regs_[in.a])) =
                    mask(program_.arrays[in.array].width, regs_[in.b]);
                break;
            case Opcode::StreamRead: {
                std::uint64_t value = 0;
                if (!io_.streamRead(in.port, value)) {
                    ++stalls_;
                    return false;
                }
                regs_[in.dst] = value;
                break;
            }
            case Opcode::StreamWrite:
                if (!io_.streamWrite(in.port,
                                     mask(program_.ports[in.port].width, regs_[in.a]))) {
                    ++stalls_;
                    return false;
                }
                break;
            case Opcode::SetResult:
                io_.setResult(in.port, mask(program_.ports[in.port].width, regs_[in.a]));
                break;
            case Opcode::Jump:
                pc_ = in.target;
                ++executed_;
                continue;
            case Opcode::JumpIfZero:
                pc_ = regs_[in.a] == 0 ? in.target : pc_ + 1;
                ++executed_;
                continue;
            case Opcode::Cost:
                waitCycles_ = in.imm - 1;
                ++pc_;
                ++executed_;
                return true;
            case Opcode::Halt:
                running_ = false;
                return true;
            }
            ++executed_;
            ++pc_;
        }
    }

private:
    static std::uint64_t mask(unsigned width, std::uint64_t value) {
        return width >= 64 ? value : value & ((1ULL << width) - 1ULL);
    }

    static std::uint64_t bin(BinOp op, std::uint64_t a, std::uint64_t b) {
        switch (op) {
        case BinOp::Add: return a + b;
        case BinOp::Sub: return a - b;
        case BinOp::Mul: return a * b;
        case BinOp::Div: return b == 0 ? ~0ULL : a / b;
        case BinOp::Mod: return b == 0 ? a : a % b;
        case BinOp::And: return a & b;
        case BinOp::Or: return a | b;
        case BinOp::Xor: return a ^ b;
        case BinOp::Shl: return b >= 64 ? 0 : a << b;
        case BinOp::Shr: return b >= 64 ? 0 : a >> b;
        case BinOp::Eq: return a == b;
        case BinOp::Ne: return a != b;
        case BinOp::Lt: return a < b;
        case BinOp::Le: return a <= b;
        case BinOp::Gt: return a > b;
        case BinOp::Ge: return a >= b;
        case BinOp::Min: return std::min(a, b);
        case BinOp::Max: return std::max(a, b);
        }
        return 0;
    }

    void write(std::uint32_t reg, std::uint64_t value) {
        regs_[reg] = reg < program_.varWidth.size() ? mask(program_.varWidth[reg], value) : value;
    }

    const Program& program_;
    KernelIo& io_;
    std::vector<std::uint64_t> regs_;
    std::vector<std::vector<std::uint64_t>> arrays_;
    std::uint32_t pc_ = 0;
    std::int64_t waitCycles_ = 0;
    bool running_ = false;
    std::uint64_t cycles_ = 0;
    std::uint64_t stalls_ = 0;
    std::uint64_t executed_ = 0;
};

/// Seeded IO that refuses about a third of all stream reads and writes,
/// and every read of an exhausted input. Two copies with one seed refuse
/// the same calls as long as both VMs make the same calls.
class FlakyIo : public KernelIo {
public:
    FlakyIo(const Program& program, std::uint64_t seed) : rng_(seed) {
        kernelgen::Rng data(seed + 1);
        for (PortId id = 0; id < program.ports.size(); ++id) {
            const KernelPort& port = program.ports[id];
            const std::uint64_t width = port.width >= 64 ? ~0ULL : (1ULL << port.width) - 1;
            if (port.kind == PortKind::StreamIn) {
                for (int i = 0; i < 512; ++i) {
                    inputs[id].push_back(data.next() & width);
                }
            } else if (port.kind == PortKind::ScalarIn) {
                args[id] = data.below(64);
            }
        }
    }

    std::uint64_t argValue(PortId port) override { return args[port]; }
    void setResult(PortId port, std::uint64_t value) override { results[port] = value; }
    bool streamRead(PortId port, std::uint64_t& value) override {
        auto& queue = inputs[port];
        if (rng_.below(3) == 0 || queue.empty()) {
            return false;
        }
        value = queue.front();
        queue.pop_front();
        return true;
    }
    bool streamWrite(PortId port, std::uint64_t value) override {
        if (rng_.below(3) == 0) {
            return false;
        }
        outputs[port].push_back(value);
        return true;
    }

    std::map<PortId, std::uint64_t> args;
    std::map<PortId, std::uint64_t> results;
    std::map<PortId, std::deque<std::uint64_t>> inputs;
    std::map<PortId, std::vector<std::uint64_t>> outputs;

private:
    kernelgen::Rng rng_;
};

/// Runs `program` on the VM and on the reference, each against its own
/// FlakyIo, comparing every observable after every tick and the outputs
/// and arrays at the end. A run that throws must throw the same message
/// on both.
::testing::AssertionResult runsAlike(const Program& program, std::uint64_t seed) {
    FlakyIo vmIo(program, seed);
    FlakyIo refIo(program, seed);
    KernelVm vm(program, vmIo);
    ReferenceVm ref(program, refIo);
    vm.start();
    ref.start();
    constexpr std::uint64_t kMaxTicks = 2'000'000;
    std::uint64_t tick = 0;
    for (; tick < kMaxTicks && (vm.running() || ref.running()); ++tick) {
        std::string vmError;
        std::string refError;
        bool vmProgress = false;
        bool refProgress = false;
        try {
            vmProgress = vm.tick();
        } catch (const SimulationError& e) {
            vmError = e.what();
        }
        try {
            refProgress = ref.tick();
        } catch (const std::out_of_range&) {
            refError = "out of bounds";
        }
        if (vmError.empty() != refError.empty() ||
            (!vmError.empty() && vmError.find("out of bounds") == std::string::npos)) {
            return ::testing::AssertionFailure()
                   << "tick " << tick << ": vm error '" << vmError << "', reference error '"
                   << refError << "'";
        }
        if (!vmError.empty()) {
            break;  // both stopped at the same out-of-bounds access
        }
        const auto state = [](const auto& m, bool progress) {
            return std::vector<std::uint64_t>{progress,           m.running(),
                                              m.pc(),             m.pendingWait(),
                                              m.cycles(),         m.stallCycles(),
                                              m.instructionsExecuted()};
        };
        if (state(vm, vmProgress) != state(ref, refProgress)) {
            return ::testing::AssertionFailure()
                   << "tick " << tick << ": (progress, running, pc, pendingWait, cycles, "
                   << "stalls, executed) differ: vm pc " << vm.pc() << " executed "
                   << vm.instructionsExecuted() << ", reference pc " << ref.pc()
                   << " executed " << ref.instructionsExecuted();
        }
    }
    if (tick == kMaxTicks) {
        return ::testing::AssertionFailure() << "no verdict in " << kMaxTicks << " ticks";
    }
    if (vmIo.outputs != refIo.outputs || vmIo.results != refIo.results) {
        return ::testing::AssertionFailure() << "outputs or results differ";
    }
    for (ArrayId id = 0; id < program.arrays.size(); ++id) {
        if (vm.array(id) != ref.array(id)) {
            return ::testing::AssertionFailure() << "array " << id << " differs";
        }
    }
    return ::testing::AssertionSuccess() << vm.instructionsExecuted() << " instructions";
}

TEST(VmDifferential, AppLibraryKernelsMatchThePlainInterpreter) {
    const std::vector<std::pair<Kernel, Directives>> kernels{
        {apps::makeGrayScaleKernel(64), apps::grayScaleDirectives()},
        {apps::makeHistogramKernel(64), apps::histogramDirectives()},
        {apps::makeOtsuKernel(64), apps::otsuDirectives()},
        {apps::makeBinarizationKernel(64), apps::binarizationDirectives()},
        {apps::makeAddKernel(), Directives{}},
        {apps::makeMulKernel(), Directives{}},
        {apps::makeGaussKernel(32), Directives{}},
        {apps::makeEdgeKernel(32), Directives{}},
        {apps::makeSobelKernel(8, 8), Directives{}},
    };
    for (const auto& [kernel, directives] : kernels) {
        const Program program = compile(kernel, directives);
        for (const std::uint64_t seed : {1ULL, 2ULL, 7919ULL}) {
            EXPECT_TRUE(runsAlike(program, seed)) << kernel.name() << " seed " << seed;
        }
    }
}

TEST(VmDifferential, RandomKernelsMatchThePlainInterpreter) {
    std::vector<std::uint64_t> seeds(199);
    std::iota(seeds.begin(), seeds.end(), 1);
    seeds.push_back(7919);  // held out
    for (const std::uint64_t seed : seeds) {
        const Kernel kernel = kernelgen::randomKernel(seed);
        Directives unoptimized;
        unoptimized.enableOptimizer = false;
        for (const Directives& d : {Directives{}, unoptimized}) {
            EXPECT_TRUE(runsAlike(compile(kernel, d), seed)) << "seed " << seed;
        }
    }
}

TEST(Bytecode, DisassembleMentionsStructure) {
    const Kernel k = apps::makeGaussKernel(32);
    const Program p = compile(k);
    const std::string text = p.disassemble();
    EXPECT_NE(text.find("srd"), std::string::npos);
    EXPECT_NE(text.find("swr"), std::string::npos);
    EXPECT_NE(text.find("cost"), std::string::npos);
    EXPECT_NE(text.find("jmp"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(Bytecode, RegisterCountCoversVarsAndTemps) {
    const Kernel k = apps::makeOtsuKernel(64);
    const Program p = compile(k, apps::otsuDirectives());
    EXPECT_GE(p.registerCount, static_cast<std::uint32_t>(k.vars().size()));
    EXPECT_EQ(p.varWidth.size(), k.vars().size());
    EXPECT_EQ(p.arrays.size(), k.arrays().size());
    EXPECT_EQ(p.ports.size(), k.ports().size());
}

} // namespace
} // namespace socgen::hls
