#include "socgen/soc/system_sim.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>
#include <sstream>

namespace socgen::soc {

SystemSimulator::SystemSimulator(const BlockDesign& design,
                                 const std::map<std::string, hls::Program>& programs,
                                 SystemOptions options)
    : design_(design), options_(options), gp_(bus_) {
    if (!design.finalised()) {
        throw SimulationError("system simulation requires a finalised design");
    }
    memory_.setEccEnabled(options_.memoryEcc);
    ps_ = std::make_unique<ZynqPs>("arm_ps", memory_, gp_);
    ps_->setPollWatchdog(options_.pollWatchdogCycles);
    ps_->setIrqWatchdog(options_.irqWatchdogCycles, options_.irqWatchdogFallbackToPoll);

    // DMA engines (with F2P completion interrupts when requested).
    for (const IpInstance* inst : design.dmaInstances()) {
        auto dma = std::make_unique<DmaEngine>(inst->name, memory_,
                                               options_.dmaWordsPerCycle);
        dma->setRetryLimit(options_.dmaRetryLimit);
        if (options_.useInterrupts) {
            mm2sIrqs_[inst->name] =
                std::make_unique<IrqLine>(inst->name + "_mm2s_introut");
            s2mmIrqs_[inst->name] =
                std::make_unique<IrqLine>(inst->name + "_s2mm_introut");
            dma->setMm2sIrq(mm2sIrqs_[inst->name].get());
            dma->setS2mmIrq(s2mmIrqs_[inst->name].get());
        }
        dmas_[inst->name] = std::move(dma);
    }

    // Accelerator cores.
    for (const IpInstance* inst : design.hlsCores()) {
        const auto it = programs.find(inst->coreName);
        if (it == programs.end()) {
            throw SimulationError("no compiled program for core " + inst->coreName);
        }
        programs_[inst->coreName] = &it->second;
        auto core = std::make_unique<AcceleratorCore>(inst->name, it->second);
        // Pure-stream cores (no AXI-Lite control attached) fire as soon as
        // data arrives — the dataflow-phase semantics of Section II-A.
        bool hasLite = false;
        for (const auto& l : design.lites()) {
            if (l.instance == inst->name) {
                hasLite = true;
            }
        }
        core->setAutoStart(!hasLite);
        if (options_.useInterrupts && hasLite) {
            coreIrqs_[inst->name] = std::make_unique<IrqLine>(inst->name + "_interrupt");
            core->setDoneIrq(coreIrqs_[inst->name].get());
        }
        cores_[inst->name] = std::move(core);
    }

    // Stream channels; attach to DMA routes / core ports. Iterate in the
    // design's order so route indices assigned by finalise() line up.
    for (const auto& s : design.streams()) {
        auto chan = std::make_unique<axi::StreamChannel>(
            s.from.str() + " -> " + s.to.str(), options_.channelCapacity, s.width);
        if (s.from.isSoc()) {
            const int route = dmas_.at(s.dmaInstance)->attachMm2s(*chan);
            require(route == s.dmaRoute, "MM2S route mismatch with finalise()");
        } else {
            cores_.at(s.from.instance)->bindStream(s.from.port, *chan);
        }
        if (s.to.isSoc()) {
            const int route = dmas_.at(s.dmaInstance)->attachS2mm(*chan);
            require(route == s.dmaRoute, "S2MM route mismatch with finalise()");
        } else {
            cores_.at(s.to.instance)->bindStream(s.to.port, *chan);
        }
        if (options_.attachMonitors) {
            monitors_.push_back(std::make_unique<axi::StreamMonitor>(*chan, &engine_));
        }
        channels_.push_back(std::move(chan));
    }

    // Memory-mapped slaves.
    for (const auto& l : design.lites()) {
        axi::LiteSlave* slave = nullptr;
        if (const auto dit = dmas_.find(l.instance); dit != dmas_.end()) {
            slave = dit->second.get();
        } else if (const auto cit = cores_.find(l.instance); cit != cores_.end()) {
            slave = cit->second.get();
        } else {
            throw SimulationError("lite connection to unknown instance " + l.instance);
        }
        bus_.mapSlave(l.instance, axi::AddressRange{l.baseAddress, l.size}, *slave);
    }

    // Registration order: PS first (issues work), then DMAs, then cores.
    engine_.add(*ps_);
    for (auto& [name, dma] : dmas_) {
        engine_.add(*dma);
    }
    for (auto& [name, core] : cores_) {
        engine_.add(*core);
    }
    for (auto& chan : channels_) {
        engine_.addChannelWatch([c = chan.get()] {
            sim::DeadlockReport::ChannelState state;
            state.name = c->name();
            state.occupancy = c->size();
            state.capacity = c->capacity();
            state.pushStalls = c->pushStalls();
            state.popStalls = c->popStalls();
            state.full = c->full();
            state.empty = c->empty();
            return state;
        });
    }
    // Delayed IRQ edges (armDelay fault) run on the engine's clock; a
    // polling system has no IRQ lines and needs no clock.
    for (auto* irqMap : {&mm2sIrqs_, &s2mmIrqs_, &coreIrqs_}) {
        for (auto& [name, line] : *irqMap) {
            irqDelayClock_.add(*line);
        }
    }
    if (options_.useInterrupts) {
        engine_.addProbe(irqDelayClock_);
    }
}

void SystemSimulator::IrqDelayClock::sample(std::uint64_t cycles) {
    for (IrqLine* line : lines_) {
        line->tickDelay(cycles);
    }
}

std::uint64_t SystemSimulator::IrqDelayClock::horizon() const {
    std::uint64_t horizon = sim::kUnbounded;
    for (const IrqLine* line : lines_) {
        horizon = std::min(horizon, line->delayHorizon());
    }
    return horizon;
}

AcceleratorCore& SystemSimulator::core(const std::string& name) {
    const auto it = cores_.find(name);
    if (it == cores_.end()) {
        throw SimulationError("no accelerator core named " + name);
    }
    return *it->second;
}

DmaEngine& SystemSimulator::dma(const std::string& name) {
    const auto it = dmas_.find(name);
    if (it == dmas_.end()) {
        throw SimulationError("no DMA engine named " + name);
    }
    return *it->second;
}

axi::StreamChannel& SystemSimulator::channel(std::size_t index) {
    require(index < channels_.size(), "channel index out of range");
    return *channels_[index];
}

const axi::StreamMonitor& SystemSimulator::monitor(std::size_t index) const {
    require(index < monitors_.size(), "monitor index out of range");
    return *monitors_[index];
}

axi::StreamChannel* SystemSimulator::channelByName(const std::string& name) {
    for (auto& chan : channels_) {
        if (chan->name() == name) {
            return chan.get();
        }
    }
    return nullptr;
}

IrqLine* SystemSimulator::irqByName(const std::string& name) {
    for (auto* irqMap : {&mm2sIrqs_, &s2mmIrqs_, &coreIrqs_}) {
        for (auto& [instance, line] : *irqMap) {
            if (line->name() == name) {
                return line.get();
            }
        }
    }
    return nullptr;
}

std::vector<std::string> SystemSimulator::channelNames() const {
    std::vector<std::string> names;
    names.reserve(channels_.size());
    for (const auto& chan : channels_) {
        names.push_back(chan->name());
    }
    return names;
}

std::vector<std::string> SystemSimulator::irqNames() const {
    std::vector<std::string> names;
    for (const auto* irqMap : {&mm2sIrqs_, &s2mmIrqs_, &coreIrqs_}) {
        for (const auto& [instance, line] : *irqMap) {
            names.push_back(line->name());
        }
    }
    return names;
}

std::vector<std::string> SystemSimulator::dmaNames() const {
    std::vector<std::string> names;
    names.reserve(dmas_.size());
    for (const auto& [name, dma] : dmas_) {
        names.push_back(name);
    }
    return names;
}

void SystemSimulator::armFaults(sim::FaultInjector& injector) {
    using sim::FaultEvent;
    using sim::FaultKind;
    injector.onFault(FaultKind::StreamStall, [this, &injector](const FaultEvent& e) {
        axi::StreamChannel* chan = channelByName(e.target);
        if (chan == nullptr) {
            throw SimulationError("fault targets unknown channel: " + e.target);
        }
        chan->setPushBlocked(true);
        chan->setPopBlocked(true);
        injector.schedule(
            {FaultKind::StreamResume, engine_.now() + e.a, e.target, 0, 0});
    });
    injector.onFault(FaultKind::StreamResume, [this](const FaultEvent& e) {
        if (axi::StreamChannel* chan = channelByName(e.target)) {
            chan->setPushBlocked(false);
            chan->setPopBlocked(false);
        }
    });
    injector.onFault(FaultKind::IrqDrop, [this](const FaultEvent& e) {
        if (IrqLine* line = irqByName(e.target)) {
            line->armDrop(e.a == 0 ? 1 : e.a);
        }
    });
    injector.onFault(FaultKind::IrqDelay, [this](const FaultEvent& e) {
        if (IrqLine* line = irqByName(e.target)) {
            line->armDelay(e.a);
        }
    });
    injector.onFault(FaultKind::DdrBitFlip, [this](const FaultEvent& e) {
        memory_.injectBitFlip(e.a, static_cast<unsigned>(e.b));
    });
    injector.onFault(FaultKind::DmaCorruptMm2s, [this](const FaultEvent& e) {
        dma(e.target).injectMm2sCorruption(e.a, e.b == 0 ? 1 : e.b);
    });
    injector.onFault(FaultKind::DmaCorruptS2mm, [this](const FaultEvent& e) {
        dma(e.target).injectS2mmCorruption(e.a, e.b == 0 ? 1 : e.b);
    });
    injector.onFault(FaultKind::DmaStall, [this](const FaultEvent& e) {
        dma(e.target).injectStall(e.a);
    });
    injector.attach(engine_);
}

std::uint64_t SystemSimulator::baseAddressOf(const std::string& instance) const {
    for (const auto& l : design_.lites()) {
        if (l.instance == instance) {
            return l.baseAddress;
        }
    }
    throw SimulationError("instance has no AXI-Lite mapping: " + instance);
}

void SystemSimulator::psWriteDma(const std::string& dmaName, int route,
                                 std::uint64_t wordAddr, std::uint32_t words) {
    const std::uint64_t base = baseAddressOf(dmaName);
    ps_->writeReg(base + dmareg::kMm2sAddr, static_cast<std::uint32_t>(wordAddr));
    ps_->writeReg(base + dmareg::kMm2sRoute, static_cast<std::uint32_t>(route));
    ps_->writeReg(base + dmareg::kMm2sLength, words);
    if (options_.useInterrupts) {
        // Carry the status-poll spec so an IRQ watchdog can degrade the
        // wait into polling instead of hanging on a lost edge.
        ps_->waitIrqWithFallback(*mm2sIrqs_.at(dmaName), base + dmareg::kMm2sStatus,
                                 dmareg::kStatusIdle, dmareg::kStatusIdle);
    } else {
        ps_->pollEq(base + dmareg::kMm2sStatus, dmareg::kStatusIdle,
                    dmareg::kStatusIdle);
    }
}

void SystemSimulator::psArmReadDma(const std::string& dmaName, int route,
                                   std::uint64_t wordAddr, std::uint32_t words) {
    const std::uint64_t base = baseAddressOf(dmaName);
    ps_->writeReg(base + dmareg::kS2mmAddr, static_cast<std::uint32_t>(wordAddr));
    ps_->writeReg(base + dmareg::kS2mmRoute, static_cast<std::uint32_t>(route));
    ps_->writeReg(base + dmareg::kS2mmLength, words);
}

void SystemSimulator::psWaitReadDma(const std::string& dmaName) {
    const std::uint64_t base = baseAddressOf(dmaName);
    if (options_.useInterrupts) {
        ps_->waitIrqWithFallback(*s2mmIrqs_.at(dmaName), base + dmareg::kS2mmStatus,
                                 dmareg::kStatusIdle, dmareg::kStatusIdle);
        return;
    }
    ps_->pollEq(base + dmareg::kS2mmStatus, dmareg::kStatusIdle, dmareg::kStatusIdle);
}

void SystemSimulator::psStartCore(const std::string& coreName) {
    ps_->writeReg(baseAddressOf(coreName) + accreg::kCtrl, accreg::kCtrlStart);
}

void SystemSimulator::psWaitCore(const std::string& coreName) {
    if (options_.useInterrupts) {
        const auto it = coreIrqs_.find(coreName);
        if (it != coreIrqs_.end()) {
            ps_->waitIrqWithFallback(*it->second,
                                     baseAddressOf(coreName) + accreg::kCtrl,
                                     accreg::kStatusDone, accreg::kStatusDone);
            return;
        }
    }
    ps_->pollEq(baseAddressOf(coreName) + accreg::kCtrl, accreg::kStatusDone,
                accreg::kStatusDone);
}

std::uint32_t SystemSimulator::argIndexOf(const std::string& coreName,
                                          const std::string& portName) const {
    const hls::Program& program = *programs_.at(coreName);
    for (std::uint32_t i = 0; i < program.ports.size(); ++i) {
        if (program.ports[i].name == portName) {
            return i;
        }
    }
    throw SimulationError(format("core %s has no port '%s'", coreName.c_str(),
                                 portName.c_str()));
}

void SystemSimulator::psSetCoreArg(const std::string& coreName, const std::string& portName,
                                   std::uint32_t value) {
    const std::uint32_t index = argIndexOf(coreName, portName);
    ps_->writeReg(baseAddressOf(coreName) + accreg::argOffset(index), value);
}

std::uint64_t SystemSimulator::run(std::uint64_t maxCycles) {
    lastRunCycles_ = engine_.runUntilIdle(maxCycles, options_.stallLimit);
    for (const auto& monitor : monitors_) {
        monitor->check();
    }
    return lastRunCycles_;
}

std::string SystemSimulator::report() const {
    std::ostringstream out;
    out << "== Execution report: " << design_.name() << " ==\n";
    out << format("cycles: %llu (%.3f ms at %.0f MHz)\n",
                  static_cast<unsigned long long>(lastRunCycles_),
                  static_cast<double>(lastRunCycles_) /
                      (design_.device().fabricClockMhz * 1000.0),
                  design_.device().fabricClockMhz);
    out << format("PS: %llu busy cycles (%llu task, %llu driver, %llu irq wakeups)\n",
                  static_cast<unsigned long long>(ps_->cyclesBusy()),
                  static_cast<unsigned long long>(ps_->taskCycles()),
                  static_cast<unsigned long long>(ps_->driverCycles()),
                  static_cast<unsigned long long>(ps_->irqWakeups()));
    for (const auto& [name, dma] : dmas_) {
        out << format("%s: %llu words moved, %llu transfers\n", name.c_str(),
                      static_cast<unsigned long long>(dma->wordsMoved()),
                      static_cast<unsigned long long>(dma->transfersCompleted()));
        if (dma->verifyRetries() > 0) {
            out << format("%s: %llu verification retries\n", name.c_str(),
                          static_cast<unsigned long long>(dma->verifyRetries()));
        }
    }
    if (memory_.eccCorrectedCount() > 0) {
        out << format("ddr: %llu ECC-corrected single-bit errors\n",
                      static_cast<unsigned long long>(memory_.eccCorrectedCount()));
    }
    if (ps_->irqWatchdogFires() > 0) {
        out << format("arm_ps: %llu IRQ watchdog fires (%llu fallbacks to polling)\n",
                      static_cast<unsigned long long>(ps_->irqWatchdogFires()),
                      static_cast<unsigned long long>(ps_->irqFallbacks()));
    }
    for (const auto& [name, core] : cores_) {
        out << format("%s: %llu cycles, %llu stalled, %llu instructions\n", name.c_str(),
                      static_cast<unsigned long long>(core->vm().cycles()),
                      static_cast<unsigned long long>(core->vm().stallCycles()),
                      static_cast<unsigned long long>(core->vm().instructionsExecuted()));
    }
    for (const auto& chan : channels_) {
        out << format("stream %-40s %llu beats, high-water %zu\n", chan->name().c_str(),
                      static_cast<unsigned long long>(chan->beatsPushed()),
                      chan->highWater());
    }
    return out.str();
}

} // namespace socgen::soc
