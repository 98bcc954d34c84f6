#pragma once

#include "socgen/axi/monitor.hpp"
#include "socgen/hls/bytecode.hpp"
#include "socgen/sim/engine.hpp"
#include "socgen/sim/fault.hpp"
#include "socgen/soc/accelerator.hpp"
#include "socgen/soc/block_design.hpp"
#include "socgen/soc/dma.hpp"
#include "socgen/soc/zynq_ps.hpp"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace socgen::soc {

struct SystemOptions {
    std::size_t channelCapacity = 64;    ///< AXI-Stream FIFO depth per link
    std::uint64_t dmaWordsPerCycle = 1;  ///< HP-port bandwidth model
    bool attachMonitors = true;          ///< per-channel protocol monitors
    /// Completion notification style of the generated driver: busy-wait
    /// register polling (the paper's readDMA/writeDMA) or F2P interrupts.
    bool useInterrupts = false;

    // -- hardening (all disabled by default: the un-hardened paper system) --
    std::uint64_t irqWatchdogCycles = 0;   ///< budget per waitIrq; 0 = off
    bool irqWatchdogFallbackToPoll = true; ///< degrade to polling vs. throw
    std::uint64_t pollWatchdogCycles = 0;  ///< budget per register poll; 0 = off
    unsigned dmaRetryLimit = 0;            ///< HP-port verify retries; 0 = off
    bool memoryEcc = false;                ///< DDR single-bit correction
    std::uint64_t stallLimit = 100'000;    ///< deadlock declaration threshold
};

/// Instantiates the runtime counterpart of a finalised BlockDesign:
/// DDR + ARM PS + GP interconnect + DMA engines + accelerator cores +
/// AXI-Stream channels, wired exactly as the design describes. This is
/// the "board" that generated systems run on in lieu of a Zedboard.
class SystemSimulator {
public:
    SystemSimulator(const BlockDesign& design,
                    const std::map<std::string, hls::Program>& programs,
                    SystemOptions options = {});

    SystemSimulator(const SystemSimulator&) = delete;
    SystemSimulator& operator=(const SystemSimulator&) = delete;

    // -- structure access ------------------------------------------------------
    [[nodiscard]] Memory& memory() { return memory_; }
    [[nodiscard]] ZynqPs& ps() { return *ps_; }
    [[nodiscard]] AcceleratorCore& core(const std::string& name);
    [[nodiscard]] DmaEngine& dma(const std::string& name);
    [[nodiscard]] axi::StreamChannel& channel(std::size_t index);
    [[nodiscard]] std::size_t channelCount() const { return channels_.size(); }
    /// Protocol monitor of channel `index` (requires attachMonitors).
    [[nodiscard]] const axi::StreamMonitor& monitor(std::size_t index) const;
    [[nodiscard]] std::uint64_t baseAddressOf(const std::string& instance) const;
    /// Channel lookup by its "from -> to" name (used for fault targeting);
    /// returns nullptr when absent.
    [[nodiscard]] axi::StreamChannel* channelByName(const std::string& name);
    /// IRQ line lookup across DMA and core completion lines; nullptr when
    /// absent (e.g. the system runs in polling mode).
    [[nodiscard]] IrqLine* irqByName(const std::string& name);

    /// Binds every cycle-level FaultKind handler to this system's
    /// channels, IRQ lines, memory and DMAs, and attaches the injector to
    /// the engine. Call before run(); flow-level kinds (bitstream/HLS)
    /// are not consumed here.
    void armFaults(sim::FaultInjector& injector);

    /// The resource names a FaultPlan::Space can target on this system.
    [[nodiscard]] std::vector<std::string> channelNames() const;
    [[nodiscard]] std::vector<std::string> irqNames() const;
    [[nodiscard]] std::vector<std::string> dmaNames() const;

    // -- generated-driver-equivalent operations (enqueued on the PS) ----------
    /// writeDMA(): programs an MM2S transfer and blocks until it drains.
    void psWriteDma(const std::string& dmaName, int route, std::uint64_t wordAddr,
                    std::uint32_t words);
    /// readDMA() arm half: programs S2MM and returns immediately.
    void psArmReadDma(const std::string& dmaName, int route, std::uint64_t wordAddr,
                      std::uint32_t words);
    /// readDMA() wait half: blocks until the S2MM channel is idle.
    void psWaitReadDma(const std::string& dmaName);
    /// Starts a memory-mapped accelerator via its CTRL register.
    void psStartCore(const std::string& coreName);
    /// Polls an accelerator until ap_done.
    void psWaitCore(const std::string& coreName);
    /// Writes a scalar argument register (by kernel port name).
    void psSetCoreArg(const std::string& coreName, const std::string& portName,
                      std::uint32_t value);

    // -- execution --------------------------------------------------------------
    /// Runs until everything is idle; returns cycles simulated. Protocol
    /// monitors are checked after the run.
    std::uint64_t run(std::uint64_t maxCycles = 200'000'000);

    [[nodiscard]] sim::Engine& engine() { return engine_; }

    /// Multi-line execution report (cycles, per-channel stats, PS split).
    [[nodiscard]] std::string report() const;
    [[nodiscard]] std::uint64_t lastRunCycles() const { return lastRunCycles_; }

private:
    /// Engine probe that clocks delayed IRQ edges (the IrqDelay fault):
    /// its horizon makes it act on the cycle the shortest held delay
    /// delivers its edge.
    class IrqDelayClock final : public sim::Probe {
    public:
        void add(IrqLine& line) { lines_.push_back(&line); }
        void sample(std::uint64_t cycles) override;
        [[nodiscard]] std::uint64_t horizon() const override;

    private:
        std::vector<IrqLine*> lines_;
    };

    [[nodiscard]] std::uint32_t argIndexOf(const std::string& coreName,
                                           const std::string& portName) const;

    const BlockDesign& design_;
    SystemOptions options_;
    Memory memory_;
    axi::LiteBus bus_;
    GpInterconnect gp_;
    std::unique_ptr<ZynqPs> ps_;
    std::vector<std::unique_ptr<axi::StreamChannel>> channels_;
    std::vector<std::unique_ptr<axi::StreamMonitor>> monitors_;
    std::map<std::string, std::unique_ptr<DmaEngine>> dmas_;
    std::map<std::string, std::unique_ptr<IrqLine>> mm2sIrqs_;
    std::map<std::string, std::unique_ptr<IrqLine>> s2mmIrqs_;
    std::map<std::string, std::unique_ptr<IrqLine>> coreIrqs_;
    std::map<std::string, std::unique_ptr<AcceleratorCore>> cores_;
    std::map<std::string, const hls::Program*> programs_;
    IrqDelayClock irqDelayClock_;
    sim::Engine engine_;
    std::uint64_t lastRunCycles_ = 0;
};

} // namespace socgen::soc
