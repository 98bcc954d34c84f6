#pragma once

#include "socgen/axi/lite.hpp"
#include "socgen/axi/stream.hpp"
#include "socgen/sim/engine.hpp"
#include "socgen/soc/irq.hpp"
#include "socgen/soc/memory.hpp"

#include <string>
#include <vector>

namespace socgen::soc {

/// Register map of the DMA engine (offsets from the instance base). The
/// layout follows the spirit of the Xilinx AXI DMA in simple mode: write
/// LENGTH last to kick a transfer, poll STATUS for idle.
namespace dmareg {
inline constexpr std::uint64_t kMm2sCtrl = 0x00;
inline constexpr std::uint64_t kMm2sStatus = 0x04;   ///< bit0: idle
inline constexpr std::uint64_t kMm2sAddr = 0x08;     ///< word address
inline constexpr std::uint64_t kMm2sLength = 0x0C;   ///< element count; starts
inline constexpr std::uint64_t kMm2sRoute = 0x10;    ///< destination index
inline constexpr std::uint64_t kS2mmCtrl = 0x30;
inline constexpr std::uint64_t kS2mmStatus = 0x34;
inline constexpr std::uint64_t kS2mmAddr = 0x38;
inline constexpr std::uint64_t kS2mmLength = 0x3C;
inline constexpr std::uint64_t kS2mmRoute = 0x40;
inline constexpr std::uint32_t kStatusIdle = 0x1;
} // namespace dmareg

/// Simulated AXI DMA core: an MM2S channel streaming memory words into
/// one of its attached destination channels, and an S2MM channel draining
/// one of its attached source channels into memory. The shared-DMA policy
/// attaches several channels and selects per transfer via the ROUTE
/// register (the paper's single-DMA-multiple-streams advantage over
/// SDSoC); the per-link policy attaches exactly one.
class DmaEngine final : public sim::Component, public axi::LiteSlave {
public:
    DmaEngine(std::string name, Memory& memory, std::uint64_t wordsPerCycle = 1);

    /// Attaches a destination stream for MM2S; returns the route index.
    int attachMm2s(axi::StreamChannel& channel);
    /// Attaches a source stream for S2MM; returns the route index.
    int attachS2mm(axi::StreamChannel& channel);

    /// Optional completion interrupts (raised when a transfer finishes).
    void setMm2sIrq(IrqLine* line) { mm2sIrq_ = line; }
    void setS2mmIrq(IrqLine* line) { s2mmIrq_ = line; }

    // sim::Component
    [[nodiscard]] const std::string& name() const override { return name_; }
    bool tick() override;
    [[nodiscard]] bool idle() const override;
    /// Quiet while idle, while an injected stall counts down, and while
    /// every active channel is held off: MM2S by a full or blocked
    /// destination, S2MM by an empty or blocked source (whose pop stall
    /// each skipped cycle credits).
    [[nodiscard]] std::uint64_t quietFor() const override;
    bool skip(std::uint64_t cycles) override;
    [[nodiscard]] std::string debugState() const override;

    // axi::LiteSlave
    [[nodiscard]] std::uint32_t readRegister(std::uint64_t offset) override;
    void writeRegister(std::uint64_t offset, std::uint32_t value) override;

    // -- statistics ----------------------------------------------------------
    [[nodiscard]] std::uint64_t wordsMoved() const { return wordsMoved_; }
    [[nodiscard]] std::uint64_t transfersCompleted() const { return transfers_; }

    // -- hardening -----------------------------------------------------------
    // With a non-zero retry limit every HP-port access is verified (MM2S:
    // two reads must agree; S2MM: read-back must match the intended word)
    // and mismatches are retried up to the limit, after which the engine
    // throws a SimulationError naming the DMA and the word address. A
    // limit of 0 (the default) disables verification: injected corruption
    // then flows through silently, exactly like un-hardened hardware.
    void setRetryLimit(unsigned limit) { retryLimit_ = limit; }
    [[nodiscard]] unsigned retryLimit() const { return retryLimit_; }
    [[nodiscard]] std::uint64_t verifyRetries() const { return verifyRetries_; }

    // -- fault hooks ---------------------------------------------------------
    /// Corrupts the next `words` MM2S memory reads. The effective XOR
    /// mask is re-derived per application from `xorMask` and a counter,
    /// so even a "persistent" fault never corrupts two back-to-back
    /// verification reads identically (which would defeat detection).
    void injectMm2sCorruption(std::uint64_t xorMask, std::uint64_t words = 1);
    /// Corrupts the next `words` S2MM memory writes (same mask scheme).
    void injectS2mmCorruption(std::uint64_t xorMask, std::uint64_t words = 1);
    /// Freezes both descriptors for `cycles` cycles (wedged interconnect).
    void injectStall(std::uint64_t cycles) { stallRemaining_ += cycles; }
    [[nodiscard]] bool stalled() const { return stallRemaining_ > 0; }

private:
    struct Channel {
        bool active = false;
        std::uint64_t address = 0;
        std::uint64_t remaining = 0;
        std::uint32_t route = 0;
    };
    struct Corruption {
        std::uint64_t mask = 0;
        std::uint64_t remaining = 0;
        std::uint64_t applied = 0;
    };

    bool tickMm2s();
    bool tickS2mm();
    [[nodiscard]] std::uint32_t corruptValue(Corruption& c, std::uint32_t value);
    [[nodiscard]] std::uint32_t hpRead(std::uint64_t wordAddress);
    [[nodiscard]] std::uint32_t hpReadVerified(std::uint64_t wordAddress);
    void hpWriteVerified(std::uint64_t wordAddress, std::uint32_t value);

    std::string name_;
    Memory& memory_;
    std::uint64_t wordsPerCycle_;
    std::vector<axi::StreamChannel*> mm2sDests_;
    std::vector<axi::StreamChannel*> s2mmSrcs_;
    Channel mm2s_;
    Channel s2mm_;
    IrqLine* mm2sIrq_ = nullptr;
    IrqLine* s2mmIrq_ = nullptr;
    std::uint64_t wordsMoved_ = 0;
    std::uint64_t transfers_ = 0;
    unsigned retryLimit_ = 0;
    std::uint64_t verifyRetries_ = 0;
    Corruption mm2sCorrupt_;
    Corruption s2mmCorrupt_;
    std::uint64_t stallRemaining_ = 0;
};

} // namespace socgen::soc
