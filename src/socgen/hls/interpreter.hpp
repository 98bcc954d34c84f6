#pragma once

#include "socgen/hls/bytecode.hpp"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace socgen::hls {

/// Bridge between the kernel VM and the surrounding system: the SoC
/// accelerator wrapper implements this against real AXI channels; tests
/// implement it against vectors.
class KernelIo {
public:
    virtual ~KernelIo() = default;

    /// Value of a scalar-in argument register (set by the GPP via AXI-Lite).
    [[nodiscard]] virtual std::uint64_t argValue(PortId port) = 0;

    /// Publishes a scalar-out result register.
    virtual void setResult(PortId port, std::uint64_t value) = 0;

    /// Non-blocking stream read; returns false when no data is available
    /// this cycle (the VM stalls).
    virtual bool streamRead(PortId port, std::uint64_t& value) = 0;

    /// Non-blocking stream write; returns false when the channel is full.
    virtual bool streamWrite(PortId port, std::uint64_t value) = 0;
};

/// Cycle-stepped virtual machine executing a compiled kernel Program.
/// One tick() is one clock cycle of the accelerator: zero-latency
/// instructions execute back-to-back until a Cost instruction charges
/// schedule-derived cycles or a stream access has to stall.
///
/// A plain kernel runs from a pre-decoded copy of its instructions, built
/// once with the VM and indexed 1:1 with `Program::instrs`: one opcode per
/// (Opcode, BinOp) pair, the destination's width mask stored in the
/// instruction, and a LoadConst or compare that feeds the next instruction
/// fused with it (DESIGN.md §16). Every observable — pc(), the counters,
/// where a stall retries — is the same as executing `Program::instrs` one
/// by one.
///
/// A network Program (Program::isNetwork()) runs in network mode: one
/// child VM per process, all ticked every cycle, with internal channel
/// ports routed through bounded in-memory FIFOs and externally bound
/// ports forwarded to the host KernelIo — so the SoC accelerator wrapper
/// hosts a whole dataflow network exactly like a single kernel. A cycle
/// in which every live process is blocked on an *internal* channel is a
/// provable deadlock (no external stimulus can ever unblock it); the VM
/// throws ChannelDeadlockError with per-channel forensics immediately
/// instead of spinning until a watchdog guesses.
class KernelVm {
public:
    KernelVm(const Program& program, KernelIo& io);
    ~KernelVm();

    /// Restarts execution from the beginning (ap_start).
    void start();

    [[nodiscard]] bool running() const { return running_; }
    [[nodiscard]] bool finished() const { return !running_ && started_; }

    /// Advances one clock cycle. Returns true if the kernel made forward
    /// progress (it did not spend the whole cycle stalled on a stream).
    bool tick();

    // -- quiet spans (plain kernels) -----------------------------------------
    /// Cycles left in the current Cost wait: that many coming ticks only
    /// count it down. 0 when no wait is pending.
    [[nodiscard]] std::uint64_t pendingWait() const {
        return running_ && waitCycles_ > 0 ? static_cast<std::uint64_t>(waitCycles_) : 0;
    }
    /// Index of the instruction the next tick executes first once no
    /// wait is pending (a stalled stream access stays here).
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    /// Accounts `cycles` ticks exactly as that many tick() calls would,
    /// for a plain kernel that is either counting down a Cost wait
    /// (`cycles` <= pendingWait()) or stalled on the stream access at
    /// pc() (the caller has checked its channel cannot move).
    void skip(std::uint64_t cycles) {
        cycles_ += cycles;
        if (waitCycles_ > 0) {
            waitCycles_ -= static_cast<std::int64_t>(cycles);
        } else {
            stalls_ += cycles;
        }
    }

    // -- statistics ----------------------------------------------------------
    [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
    [[nodiscard]] std::uint64_t stallCycles() const { return stalls_; }
    [[nodiscard]] std::uint64_t instructionsExecuted() const { return executed_; }

    /// Direct array access for tests / result extraction.
    [[nodiscard]] const std::vector<std::uint64_t>& array(ArrayId id) const;

    // -- network mode --------------------------------------------------------
    [[nodiscard]] bool isNetwork() const { return program_.isNetwork(); }
    [[nodiscard]] std::size_t processCount() const { return processes_.size(); }
    /// Child VM of one process (network mode only; throws otherwise).
    [[nodiscard]] const KernelVm& process(std::size_t index) const;

    /// Channel/process forensics: per-channel occupancy, depth and
    /// traffic counters plus per-process state and the port each stalled
    /// process is blocked on. Embedded in ChannelDeadlockError messages
    /// and queryable by cosim watchdogs for stall reports.
    [[nodiscard]] std::string networkStallReport() const;

private:
    class ProcessIo;

    struct ChannelState {
        std::deque<std::uint64_t> fifo;
        std::uint64_t pushes = 0;
        std::uint64_t pops = 0;
    };

    /// One pre-decoded instruction. A fused pair runs the next entry's
    /// instruction too, reading that entry's fields.
    struct Decoded {
        std::uint8_t op = 0;     ///< what runs here: one instruction or a fused pair
        std::uint8_t plain = 0;  ///< this index's instruction alone
        std::uint32_t dst = 0;
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        std::uint32_t c = 0;     ///< Select's else register, port, array or jump target
        std::uint64_t x = 0;     ///< width mask of the write, masked constant, or Cost cycles
    };

    void decode();
    void startNetwork();
    bool tickNetwork();

    const Program& program_;
    KernelIo& io_;
    std::vector<Decoded> code_;  ///< parallel to program_.instrs (plain kernels)
    std::vector<std::uint64_t> regs_;
    std::vector<std::vector<std::uint64_t>> arrays_;
    std::uint32_t pc_ = 0;
    std::int64_t waitCycles_ = 0;
    bool running_ = false;
    bool started_ = false;
    std::uint64_t cycles_ = 0;
    std::uint64_t stalls_ = 0;
    std::uint64_t executed_ = 0;

    // Network mode (empty for plain kernels).
    std::vector<ChannelState> channelState_;
    std::vector<std::unique_ptr<ProcessIo>> processIo_;
    std::vector<std::unique_ptr<KernelVm>> processes_;
};

} // namespace socgen::hls
