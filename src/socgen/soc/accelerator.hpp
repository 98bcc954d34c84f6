#pragma once

#include "socgen/axi/lite.hpp"
#include "socgen/axi/stream.hpp"
#include "socgen/hls/interpreter.hpp"
#include "socgen/sim/engine.hpp"
#include "socgen/soc/irq.hpp"

#include <string>
#include <vector>

namespace socgen::soc {

/// Control register map of a generated accelerator (Vivado HLS
/// ap_ctrl_hs-style): offset 0x00 is CTRL/STATUS, scalar arguments and
/// results live at 0x10 + 4*portIndex.
namespace accreg {
inline constexpr std::uint64_t kCtrl = 0x00;
inline constexpr std::uint32_t kCtrlStart = 0x1;   ///< write: ap_start
inline constexpr std::uint32_t kStatusDone = 0x2;  ///< read: ap_done
inline constexpr std::uint32_t kStatusIdle = 0x4;  ///< read: ap_idle
inline constexpr std::uint64_t kArgBase = 0x10;

[[nodiscard]] inline std::uint64_t argOffset(std::uint32_t portIndex) {
    return kArgBase + 4ULL * portIndex;
}
} // namespace accreg

/// The PL-side wrapper around one HLS-generated core: it executes the
/// kernel's compiled bytecode with schedule-derived timing, exposes the
/// AXI-Lite control/argument registers, and bridges the kernel's stream
/// ports to AXI-Stream channels.
class AcceleratorCore final : public sim::Component,
                              public axi::LiteSlave,
                              private hls::KernelIo {
public:
    AcceleratorCore(std::string name, const hls::Program& program);

    /// Binds a kernel stream port (by name) to a channel. Every stream
    /// port must be bound before simulation.
    void bindStream(const std::string& portName, axi::StreamChannel& channel);

    /// Auto-start: the core begins executing immediately and does not
    /// wait for an AXI-Lite start command (used for pure-stream dataflow
    /// cores inside a phase, which "fire as soon as the minimum amount of
    /// data is available" — paper Section II-A).
    void setAutoStart(bool autoStart) { autoStart_ = autoStart; }

    /// Optional ap_done interrupt line.
    void setDoneIrq(IrqLine* line) { doneIrq_ = line; }

    /// Sets a scalar argument directly (testing convenience; the system
    /// path goes through writeRegister).
    void setArg(const std::string& portName, std::uint64_t value);
    [[nodiscard]] std::uint64_t result(const std::string& portName) const;

    [[nodiscard]] const hls::KernelVm& vm() const { return vm_; }
    [[nodiscard]] bool done() const { return vm_.finished(); }

    // sim::Component
    [[nodiscard]] const std::string& name() const override { return name_; }
    bool tick() override;
    [[nodiscard]] bool idle() const override;
    /// Quiet while not running (unless an auto-start core is about to
    /// start), while the VM counts down a Cost wait, and while it is
    /// stalled on a stream read of an empty (or blocked) channel or a
    /// stream write to a full (or blocked) one. A process-network VM is
    /// never quiet while it runs.
    [[nodiscard]] std::uint64_t quietFor() const override;
    bool skip(std::uint64_t cycles) override;

    // axi::LiteSlave
    [[nodiscard]] std::uint32_t readRegister(std::uint64_t offset) override;
    void writeRegister(std::uint64_t offset, std::uint32_t value) override;

private:
    // hls::KernelIo
    std::uint64_t argValue(hls::PortId port) override;
    void setResult(hls::PortId port, std::uint64_t value) override;
    bool streamRead(hls::PortId port, std::uint64_t& value) override;
    bool streamWrite(hls::PortId port, std::uint64_t value) override;

    [[nodiscard]] hls::PortId portIdOf(const std::string& portName) const;
    [[nodiscard]] axi::StreamChannel& boundStream(hls::PortId port) const;
    /// The channel the VM is stalled on when its next instruction is a
    /// stream access (nullptr otherwise); `read` tells the direction.
    [[nodiscard]] axi::StreamChannel* nextStreamAccess(bool& read) const;

    std::string name_;
    hls::Program program_;  ///< owned copy (the VM holds a reference)
    hls::KernelVm vm_;
    std::vector<axi::StreamChannel*> streams_;  ///< by PortId; nullptr = unbound
    std::vector<std::uint64_t> scalars_;        ///< by PortId: args and results
    bool autoStart_ = false;
    bool doneLatched_ = false;
    IrqLine* doneIrq_ = nullptr;
};

} // namespace socgen::soc
