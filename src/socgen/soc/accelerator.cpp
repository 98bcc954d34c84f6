#include "socgen/soc/accelerator.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

namespace socgen::soc {

AcceleratorCore::AcceleratorCore(std::string name, const hls::Program& program)
    : name_(std::move(name)),
      program_(program),
      vm_(program_, *this),
      streams_(program_.ports.size(), nullptr),
      scalars_(program_.ports.size(), 0) {}

hls::PortId AcceleratorCore::portIdOf(const std::string& portName) const {
    for (hls::PortId i = 0; i < program_.ports.size(); ++i) {
        if (program_.ports[i].name == portName) {
            return i;
        }
    }
    throw SimulationError(format("%s: no kernel port named '%s'", name_.c_str(),
                                 portName.c_str()));
}

void AcceleratorCore::bindStream(const std::string& portName, axi::StreamChannel& channel) {
    const hls::PortId id = portIdOf(portName);
    if (!hls::isStreamPort(program_.ports[id].kind)) {
        throw SimulationError(format("%s: port '%s' is not a stream port", name_.c_str(),
                                     portName.c_str()));
    }
    streams_[id] = &channel;
}

void AcceleratorCore::setArg(const std::string& portName, std::uint64_t value) {
    scalars_[portIdOf(portName)] = value;
}

std::uint64_t AcceleratorCore::result(const std::string& portName) const {
    return scalars_[portIdOf(portName)];
}

bool AcceleratorCore::tick() {
    if (autoStart_ && !vm_.running() && !vm_.finished()) {
        vm_.start();
    }
    if (!vm_.running()) {
        return false;
    }
    const bool progressed = vm_.tick();
    if (vm_.finished() && !doneLatched_) {
        doneLatched_ = true;
        if (doneIrq_ != nullptr) {
            doneIrq_->raise();
        }
    }
    return progressed;
}

bool AcceleratorCore::idle() const {
    return !vm_.running();
}

axi::StreamChannel* AcceleratorCore::nextStreamAccess(bool& read) const {
    const hls::Instr& next = program_.instrs[vm_.pc()];
    read = next.op == hls::Opcode::StreamRead;
    if (!read && next.op != hls::Opcode::StreamWrite) {
        return nullptr;
    }
    return streams_[next.port];
}

std::uint64_t AcceleratorCore::quietFor() const {
    if (!vm_.running()) {
        return autoStart_ && !vm_.finished() ? 0 : sim::kUnbounded;
    }
    if (vm_.isNetwork()) {
        return 0;
    }
    if (const std::uint64_t wait = vm_.pendingWait(); wait > 0) {
        return wait;
    }
    bool read = false;
    const axi::StreamChannel* channel = nextStreamAccess(read);
    if (channel == nullptr) {
        return 0;  // not a stream access, or unbound: a real tick throws
    }
    const bool stalled = read ? channel->empty() || channel->popBlocked()
                              : channel->full() || channel->pushBlocked();
    return stalled ? sim::kUnbounded : 0;
}

bool AcceleratorCore::skip(std::uint64_t cycles) {
    if (!vm_.running()) {
        return false;
    }
    const bool waiting = vm_.pendingWait() > 0;
    if (!waiting) {
        bool read = false;
        axi::StreamChannel* channel = nextStreamAccess(read);
        if (read) {
            channel->creditPopStalls(cycles);
        } else {
            channel->creditPushStalls(cycles);
        }
    }
    vm_.skip(cycles);
    return waiting;  // a Cost wait is progress, a stream stall is not
}

std::uint32_t AcceleratorCore::readRegister(std::uint64_t offset) {
    if (offset == accreg::kCtrl) {
        std::uint32_t status = 0;
        if (doneLatched_) {
            status |= accreg::kStatusDone;
        }
        if (!vm_.running()) {
            status |= accreg::kStatusIdle;
        }
        return status;
    }
    if (offset >= accreg::kArgBase && (offset - accreg::kArgBase) % 4 == 0) {
        const auto index = static_cast<std::uint32_t>((offset - accreg::kArgBase) / 4);
        if (index < program_.ports.size()) {
            return static_cast<std::uint32_t>(scalars_[index]);
        }
    }
    throw SimulationError(format("%s: read of unknown register 0x%llx", name_.c_str(),
                                 static_cast<unsigned long long>(offset)));
}

void AcceleratorCore::writeRegister(std::uint64_t offset, std::uint32_t value) {
    if (offset == accreg::kCtrl) {
        if ((value & accreg::kCtrlStart) != 0) {
            if (vm_.running()) {
                throw SimulationError(name_ + ": ap_start while still running");
            }
            doneLatched_ = false;
            vm_.start();
        }
        return;
    }
    if (offset >= accreg::kArgBase && (offset - accreg::kArgBase) % 4 == 0) {
        const auto index = static_cast<std::uint32_t>((offset - accreg::kArgBase) / 4);
        if (index < program_.ports.size() &&
            program_.ports[index].kind == hls::PortKind::ScalarIn) {
            scalars_[index] = value;
            return;
        }
    }
    throw SimulationError(format("%s: write of unknown register 0x%llx", name_.c_str(),
                                 static_cast<unsigned long long>(offset)));
}

std::uint64_t AcceleratorCore::argValue(hls::PortId port) {
    return scalars_[port];
}

void AcceleratorCore::setResult(hls::PortId port, std::uint64_t value) {
    scalars_[port] = value;
}

axi::StreamChannel& AcceleratorCore::boundStream(hls::PortId port) const {
    axi::StreamChannel* channel = streams_[port];
    if (channel == nullptr) {
        throw SimulationError(format("%s: stream port '%s' not bound", name_.c_str(),
                                     program_.ports[port].name.c_str()));
    }
    return *channel;
}

bool AcceleratorCore::streamRead(hls::PortId port, std::uint64_t& value) {
    axi::StreamBeat beat;
    if (!boundStream(port).tryPop(beat)) {
        return false;
    }
    value = beat.data;
    return true;
}

bool AcceleratorCore::streamWrite(hls::PortId port, std::uint64_t value) {
    return boundStream(port).tryPush(value, false);
}

} // namespace socgen::soc
