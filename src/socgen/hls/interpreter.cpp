#include "socgen/hls/interpreter.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>

namespace socgen::hls {

namespace {

std::uint64_t maskTo(unsigned width, std::uint64_t value) {
    if (width >= 64) {
        return value;
    }
    return value & ((1ULL << width) - 1ULL);
}

} // namespace

/// Per-process KernelIo adapter: routes each port of one child program
/// either to an internal channel FIFO or out to the network's host IO,
/// and remembers which channel (if any) the last failed stream access
/// blocked on — the signal the deadlock detector aggregates.
class KernelVm::ProcessIo : public KernelIo {
public:
    struct Route {
        enum class Kind { Unbound, External, ChannelIn, ChannelOut };
        Kind kind = Kind::Unbound;
        PortId external = kNoId;      ///< network-level port (Kind::External)
        std::uint32_t channel = 0;    ///< channel index (Kind::Channel*)
    };

    ProcessIo(KernelVm& parent, std::uint32_t processIndex)
        : parent_(parent), processIndex_(processIndex) {
        const Program& child = parent.program_.processPrograms[processIndex];
        routes_.resize(child.ports.size());
        for (std::uint32_t c = 0; c < parent.program_.channels.size(); ++c) {
            const ProgramChannel& ch = parent.program_.channels[c];
            if (ch.fromProcess == processIndex_) {
                route(ch.fromPort).kind = Route::Kind::ChannelOut;
                route(ch.fromPort).channel = c;
            }
            if (ch.toProcess == processIndex_) {
                route(ch.toPort).kind = Route::Kind::ChannelIn;
                route(ch.toPort).channel = c;
            }
        }
        for (const ProgramBinding& b : parent.program_.bindings) {
            if (b.process == processIndex_) {
                route(b.processPort).kind = Route::Kind::External;
                route(b.processPort).external = b.networkPort;
            }
        }
    }

    std::uint64_t argValue(PortId port) override {
        return parent_.io_.argValue(externalPort(port));
    }

    void setResult(PortId port, std::uint64_t value) override {
        parent_.io_.setResult(externalPort(port), value);
    }

    bool streamRead(PortId port, std::uint64_t& value) override {
        const Route& r = route(port);
        if (r.kind == Route::Kind::ChannelIn) {
            ChannelState& ch = parent_.channelState_[r.channel];
            if (ch.fifo.empty()) {
                blockedChannel_ = static_cast<int>(r.channel);
                return false;
            }
            value = ch.fifo.front();
            ch.fifo.pop_front();
            ++ch.pops;
            return true;
        }
        if (!parent_.io_.streamRead(externalPort(port), value)) {
            blockedExternal_ = route(port).external;
            return false;
        }
        return true;
    }

    bool streamWrite(PortId port, std::uint64_t value) override {
        const Route& r = route(port);
        if (r.kind == Route::Kind::ChannelOut) {
            const ProgramChannel& spec = parent_.program_.channels[r.channel];
            ChannelState& ch = parent_.channelState_[r.channel];
            if (ch.fifo.size() >= spec.depth) {
                blockedChannel_ = static_cast<int>(r.channel);
                return false;
            }
            ch.fifo.push_back(maskTo(spec.width, value));
            ++ch.pushes;
            return true;
        }
        if (!parent_.io_.streamWrite(externalPort(port), value)) {
            blockedExternal_ = route(port).external;
            return false;
        }
        return true;
    }

    void clearBlocked() {
        blockedChannel_ = -1;
        blockedExternal_ = kNoId;
    }
    [[nodiscard]] bool blockedOnChannel() const { return blockedChannel_ >= 0; }
    [[nodiscard]] int blockedChannel() const { return blockedChannel_; }
    [[nodiscard]] PortId blockedExternal() const { return blockedExternal_; }

private:
    Route& route(PortId port) {
        require(port < routes_.size(), "network process port out of range");
        return routes_[port];
    }

    PortId externalPort(PortId port) {
        const Route& r = route(port);
        if (r.kind != Route::Kind::External) {
            throw SimulationError(format(
                "network %s: process port %u of process %u is not externally bound",
                parent_.program_.kernelName.c_str(), port, processIndex_));
        }
        return r.external;
    }

    KernelVm& parent_;
    std::uint32_t processIndex_;
    std::vector<Route> routes_;
    int blockedChannel_ = -1;          ///< channel of the last failed access
    PortId blockedExternal_ = kNoId;   ///< external port of the last failed access
};

KernelVm::KernelVm(const Program& program, KernelIo& io)
    : program_(program), io_(io), regs_(program.registerCount, 0) {
    decode();
    arrays_.reserve(program.arrays.size());
    for (const auto& spec : program.arrays) {
        arrays_.emplace_back(spec.depth, 0);
    }
    if (program_.isNetwork()) {
        require(program_.processNames.size() == program_.processPrograms.size(),
                "network program: process name/program tables disagree");
        for (const ProgramChannel& ch : program_.channels) {
            require(ch.fromProcess < program_.processPrograms.size() &&
                        ch.toProcess < program_.processPrograms.size(),
                    "network program: channel process index out of range");
            require(ch.depth >= 1, "network program: channel depth must be >= 1");
        }
        for (const ProgramBinding& b : program_.bindings) {
            require(b.process < program_.processPrograms.size(),
                    "network program: binding process index out of range");
            require(b.networkPort < program_.ports.size(),
                    "network program: binding network port out of range");
        }
        channelState_.resize(program_.channels.size());
        processIo_.reserve(program_.processPrograms.size());
        processes_.reserve(program_.processPrograms.size());
        for (std::uint32_t i = 0; i < program_.processPrograms.size(); ++i) {
            processIo_.push_back(std::make_unique<ProcessIo>(*this, i));
            processes_.push_back(
                std::make_unique<KernelVm>(program_.processPrograms[i], *processIo_[i]));
        }
    }
}

KernelVm::~KernelVm() = default;

void KernelVm::start() {
    if (isNetwork()) {
        startNetwork();
        return;
    }
    std::fill(regs_.begin(), regs_.end(), 0);
    // Arrays keep their contents across invocations (BRAM is persistent),
    // matching hardware behaviour.
    pc_ = 0;
    waitCycles_ = 0;
    running_ = true;
    started_ = true;
}

void KernelVm::startNetwork() {
    for (std::uint32_t c = 0; c < channelState_.size(); ++c) {
        ChannelState& ch = channelState_[c];
        ch.fifo.clear();
        // Initial tokens are zero-valued, matching the reset state of the
        // RTL FIFO's register slots.
        ch.fifo.assign(program_.channels[c].initialTokens, 0);
    }
    for (auto& vm : processes_) {
        vm->start();
    }
    running_ = true;
    started_ = true;
}

const KernelVm& KernelVm::process(std::size_t index) const {
    require(isNetwork(), "process(): not a network program");
    require(index < processes_.size(), "process index out of range");
    return *processes_[index];
}

const std::vector<std::uint64_t>& KernelVm::array(ArrayId id) const {
    require(id < arrays_.size(), "array id out of range");
    return arrays_[id];
}

namespace {

// Inlined into tick() with a constant operator, so each Bin opcode of the
// pre-decoded form compiles to its own operation.
[[gnu::always_inline]] inline std::uint64_t applyBin(BinOp op, std::uint64_t a,
                                                     std::uint64_t b) {
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
    case BinOp::Eq: return a == b ? 1 : 0;
    case BinOp::Ne: return a != b ? 1 : 0;
    case BinOp::Lt: return a < b ? 1 : 0;
    case BinOp::Le: return a <= b ? 1 : 0;
    case BinOp::Gt: return a > b ? 1 : 0;
    case BinOp::Ge: return a >= b ? 1 : 0;
    case BinOp::Min: return std::min(a, b);
    case BinOp::Max: return std::max(a, b);
    }
    return 0;
}

#define SOCGEN_VM_BINOPS(X)                                                                 \
    X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(And) X(Or) X(Xor) X(Shl) X(Shr) X(Eq) X(Ne) X(Lt) \
    X(Le) X(Gt) X(Ge) X(Min) X(Max)

constexpr int kBinOps = static_cast<int>(BinOp::Max) + 1;
#define SOCGEN_VM_COUNT(name) +1
static_assert((0 SOCGEN_VM_BINOPS(SOCGEN_VM_COUNT)) == kBinOps, "a BinOp lacks a VM opcode");
#undef SOCGEN_VM_COUNT

/// Opcodes of the pre-decoded form. Each of the three Bin families holds
/// one opcode per BinOp, in BinOp order.
enum DecodedOp : std::uint8_t {
    kLoadConst,
    kMove,
    kLoadArg,
    kNot,
    kNeg,
    kSelect,
    kArrayLoad,
    kArrayStore,
    kStreamRead,
    kStreamWrite,
    kSetResult,
    kJump,
    kJumpIfZero,
    kCost,
    kHalt,
    kBin,                     ///< + BinOp: dst <- a (op) b
    kLdcBin = kBin + kBinOps, ///< + BinOp: this LoadConst, then the next entry's Bin
    kBinJz = kLdcBin + kBinOps, ///< + BinOp: this Bin, then the next entry's JumpIfZero
};

constexpr std::uint8_t binOpcode(DecodedOp family, BinOp op) {
    return static_cast<std::uint8_t>(family + static_cast<int>(op));
}

} // namespace

void KernelVm::decode() {
    const std::vector<Instr>& instrs = program_.instrs;
    const auto maskOf = [&](std::uint32_t reg) {
        return reg < program_.varWidth.size() ? maskTo(program_.varWidth[reg], ~0ULL)
                                              : ~0ULL;
    };
    code_.resize(instrs.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instr& in = instrs[i];
        Decoded& d = code_[i];
        d.dst = in.dst;
        d.a = in.a;
        d.b = in.b;
        d.x = maskOf(in.dst);
        switch (in.op) {
        case Opcode::LoadConst:
            d.plain = kLoadConst;
            d.x &= static_cast<std::uint64_t>(in.imm);
            break;
        case Opcode::Move: d.plain = kMove; break;
        case Opcode::LoadArg:
            d.plain = kLoadArg;
            d.c = in.port;
            break;
        case Opcode::Bin: d.plain = binOpcode(kBin, in.bop); break;
        case Opcode::Un: d.plain = in.uop == UnOp::Not ? kNot : kNeg; break;
        case Opcode::Select:
            d.plain = kSelect;
            d.c = in.c;
            break;
        case Opcode::ArrayLoad:
            d.plain = kArrayLoad;
            d.c = in.array;
            break;
        case Opcode::ArrayStore:
            require(in.array < program_.arrays.size(), "program: array index out of range");
            d.plain = kArrayStore;
            d.c = in.array;
            d.x = maskTo(program_.arrays[in.array].width, ~0ULL);
            break;
        case Opcode::StreamRead:
            d.plain = kStreamRead;
            d.c = in.port;
            break;
        case Opcode::StreamWrite:
        case Opcode::SetResult:
            require(in.port < program_.ports.size(), "program: port index out of range");
            d.plain = in.op == Opcode::StreamWrite ? kStreamWrite : kSetResult;
            d.c = in.port;
            d.x = maskTo(program_.ports[in.port].width, ~0ULL);
            break;
        case Opcode::Jump:
        case Opcode::JumpIfZero:
            d.plain = in.op == Opcode::Jump ? kJump : kJumpIfZero;
            d.c = in.target;
            break;
        case Opcode::Cost:
            d.plain = kCost;
            d.x = static_cast<std::uint64_t>(in.imm);
            break;
        case Opcode::Halt: d.plain = kHalt; break;
        }
        d.op = d.plain;
    }
    // Fuse pairs. The second index keeps its plain entry, so a jump can
    // still land there.
    for (std::size_t i = 0; i + 1 < instrs.size(); ++i) {
        const Opcode next = instrs[i + 1].op;
        if (instrs[i].op == Opcode::LoadConst && next == Opcode::Bin) {
            code_[i].op = binOpcode(kLdcBin, instrs[i + 1].bop);
        } else if (instrs[i].op == Opcode::Bin && next == Opcode::JumpIfZero) {
            code_[i].op = binOpcode(kBinJz, instrs[i].bop);
        }
    }
}

bool KernelVm::tick() {
    if (!running_) {
        return false;
    }
    if (isNetwork()) {
        return tickNetwork();
    }
    ++cycles_;
    if (waitCycles_ > 0) {
        --waitCycles_;
        return true;
    }
    // Execute zero-cost instructions until this cycle is accounted for.
    // The cap catches compiler bugs (a loop without a Cost back-edge). It
    // counts executed instructions, so a fused pair that would cross it
    // runs its first instruction alone.
    constexpr std::uint64_t kMaxInstrPerCycle = 1u << 20;
    // The program counter and instruction count live in locals while the
    // cycle runs (stores to regs_ could alias the members) and are
    // written back on every exit.
    std::uint32_t pc = pc_;
    std::uint64_t executed = executed_;
    struct WriteBack {
        KernelVm& vm;
        const std::uint32_t& pc;
        const std::uint64_t& executed;
        ~WriteBack() {
            vm.pc_ = pc;
            vm.executed_ = executed;
        }
    } writeBack{*this, pc, executed};
    const std::uint64_t limit = executed + kMaxInstrPerCycle;
    const Decoded* const code = code_.data();
    std::uint64_t* const r = regs_.data();
    for (;;) {
        const Decoded& d = code[pc];
        std::uint8_t op = d.op;
        if (limit - executed < 2) [[unlikely]] {
            if (executed == limit) {
                throw SimulationError(
                    format("kernel %s: executed %llu instructions without "
                           "consuming a cycle (missing Cost?)",
                           program_.kernelName.c_str(),
                           static_cast<unsigned long long>(kMaxInstrPerCycle)));
            }
            op = d.plain;
        }
        switch (op) {
        case kLoadConst:
            r[d.dst] = d.x;
            break;
        case kMove:
            r[d.dst] = r[d.a] & d.x;
            break;
        case kLoadArg:
            r[d.dst] = io_.argValue(d.c) & d.x;
            break;
        case kNot:
            r[d.dst] = ~r[d.a] & d.x;
            break;
        case kNeg:
            r[d.dst] = (0 - r[d.a]) & d.x;
            break;
        case kSelect:
            r[d.dst] = (r[d.a] != 0 ? r[d.b] : r[d.c]) & d.x;
            break;
        case kArrayLoad: {
            const auto& mem = arrays_[d.c];
            const auto idx = static_cast<std::size_t>(r[d.a]);
            if (idx >= mem.size()) {
                throw SimulationError(format("kernel %s: array %u read out of bounds "
                                             "(%zu >= %zu)",
                                             program_.kernelName.c_str(), d.c, idx,
                                             mem.size()));
            }
            r[d.dst] = mem[idx];
            break;
        }
        case kArrayStore: {
            auto& mem = arrays_[d.c];
            const auto idx = static_cast<std::size_t>(r[d.a]);
            if (idx >= mem.size()) {
                throw SimulationError(format("kernel %s: array %u write out of bounds "
                                             "(%zu >= %zu)",
                                             program_.kernelName.c_str(), d.c, idx,
                                             mem.size()));
            }
            mem[idx] = r[d.b] & d.x;
            break;
        }
        case kStreamRead: {
            std::uint64_t value = 0;
            if (!io_.streamRead(d.c, value)) {
                ++stalls_;
                return false;  // stall this cycle; retry same pc next tick
            }
            r[d.dst] = value;
            break;
        }
        case kStreamWrite:
            if (!io_.streamWrite(d.c, r[d.a] & d.x)) {
                ++stalls_;
                return false;
            }
            break;
        case kSetResult:
            io_.setResult(d.c, r[d.a] & d.x);
            break;
        case kJump:
            pc = d.c;
            ++executed;
            continue;
        case kJumpIfZero:
            pc = r[d.a] == 0 ? d.c : pc + 1;
            ++executed;
            continue;
        case kCost:
            waitCycles_ = static_cast<std::int64_t>(d.x) - 1;  // this tick is the first cycle
            ++pc;
            ++executed;
            return true;
        case kHalt:
            running_ = false;
            return true;
#define SOCGEN_VM_BIN_CASES(name)                                                         \
    case binOpcode(kBin, BinOp::name):                                                    \
        r[d.dst] = applyBin(BinOp::name, r[d.a], r[d.b]) & d.x;                           \
        break;                                                                            \
    case binOpcode(kLdcBin, BinOp::name): {                                               \
        r[d.dst] = d.x;                                                                   \
        const Decoded& bin = code[pc + 1];                                                \
        r[bin.dst] = applyBin(BinOp::name, r[bin.a], r[bin.b]) & bin.x;                   \
        pc += 2;                                                                          \
        executed += 2;                                                                    \
        continue;                                                                         \
    }                                                                                     \
    case binOpcode(kBinJz, BinOp::name): {                                                \
        r[d.dst] = applyBin(BinOp::name, r[d.a], r[d.b]) & d.x;                           \
        const Decoded& jz = code[pc + 1];                                                 \
        pc = r[jz.a] == 0 ? jz.c : pc + 2;                                                \
        executed += 2;                                                                    \
        continue;                                                                         \
    }
            SOCGEN_VM_BINOPS(SOCGEN_VM_BIN_CASES)
#undef SOCGEN_VM_BIN_CASES
        }
        ++executed;
        ++pc;
    }
}

#undef SOCGEN_VM_BINOPS

bool KernelVm::tickNetwork() {
    ++cycles_;
    bool progressed = false;
    for (std::size_t i = 0; i < processes_.size(); ++i) {
        KernelVm& vm = *processes_[i];
        if (!vm.running()) {
            continue;
        }
        processIo_[i]->clearBlocked();
        if (vm.tick()) {
            progressed = true;
        }
    }
    std::uint64_t executedTotal = 0;
    bool anyRunning = false;
    for (const auto& vm : processes_) {
        executedTotal += vm->instructionsExecuted();
        anyRunning = anyRunning || vm->running();
    }
    executed_ = executedTotal;
    if (!anyRunning) {
        running_ = false;
        return true;
    }
    if (progressed) {
        return true;
    }
    ++stalls_;
    // Every live process spent the cycle stalled. If each of them is
    // blocked on an *internal* channel, the network can never move again:
    // internal FIFOs only change when a process moves, and external
    // stimulus only reaches externally blocked processes. Fail now with
    // forensics instead of hanging until a host watchdog fires.
    bool allInternal = true;
    for (std::size_t i = 0; i < processes_.size(); ++i) {
        if (processes_[i]->running() && !processIo_[i]->blockedOnChannel()) {
            allInternal = false;
            break;
        }
    }
    if (allInternal) {
        std::vector<std::string> channels;
        std::vector<std::string> blockedProcesses;
        for (std::size_t i = 0; i < processes_.size(); ++i) {
            if (!processes_[i]->running()) {
                continue;
            }
            blockedProcesses.push_back(program_.processNames[i]);
            const int ch = processIo_[i]->blockedChannel();
            const std::string& name =
                program_.channels[static_cast<std::size_t>(ch)].name;
            if (std::find(channels.begin(), channels.end(), name) == channels.end()) {
                channels.push_back(name);
            }
        }
        throw ChannelDeadlockError(
            format("network %s: every live process is blocked on an internal channel "
                   "at cycle %llu — no external stimulus can unblock it\n%s",
                   program_.kernelName.c_str(),
                   static_cast<unsigned long long>(cycles_),
                   networkStallReport().c_str()),
            channels, blockedProcesses);
    }
    return false;
}

std::string KernelVm::networkStallReport() const {
    require(isNetwork(), "networkStallReport(): not a network program");
    std::string report = format("network %s stall state:", program_.kernelName.c_str());
    for (std::size_t c = 0; c < channelState_.size(); ++c) {
        const ProgramChannel& spec = program_.channels[c];
        const ChannelState& ch = channelState_[c];
        report += format("\n  channel %-16s %zu/%u full, %llu pushed, %llu popped (%s.%s "
                         "-> %s.%s)",
                         spec.name.c_str(), ch.fifo.size(), spec.depth,
                         static_cast<unsigned long long>(ch.pushes),
                         static_cast<unsigned long long>(ch.pops),
                         program_.processNames[spec.fromProcess].c_str(),
                         program_.processPrograms[spec.fromProcess]
                             .ports[spec.fromPort]
                             .name.c_str(),
                         program_.processNames[spec.toProcess].c_str(),
                         program_.processPrograms[spec.toProcess]
                             .ports[spec.toPort]
                             .name.c_str());
    }
    for (std::size_t i = 0; i < processes_.size(); ++i) {
        const KernelVm& vm = *processes_[i];
        std::string state;
        if (vm.finished()) {
            state = "finished";
        } else if (!vm.running()) {
            state = "idle";
        } else if (processIo_[i]->blockedOnChannel()) {
            const auto ch = static_cast<std::size_t>(processIo_[i]->blockedChannel());
            state = "blocked on channel '" + program_.channels[ch].name + "'";
        } else if (processIo_[i]->blockedExternal() != kNoId) {
            state = "blocked on external port '" +
                    program_.ports[processIo_[i]->blockedExternal()].name + "'";
        } else {
            state = "running";
        }
        report += format("\n  process %-16s %s (%llu cycles, %llu stalled)",
                         program_.processNames[i].c_str(), state.c_str(),
                         static_cast<unsigned long long>(vm.cycles()),
                         static_cast<unsigned long long>(vm.stallCycles()));
    }
    return report;
}

} // namespace socgen::hls
