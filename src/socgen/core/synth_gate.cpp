#include "socgen/core/synth_gate.hpp"

namespace socgen::core {

SynthGate::Claim SynthGate::claim(const std::string& key) {
    std::unique_lock<std::mutex> lock(mutex_);
    Claim out;
    if (leaders_.count(key) > 0) {
        ++waits_;
        cv_.wait(lock, [this, &key] { return leaders_.count(key) == 0; });
    }
    leaders_.insert(key);
    // The token's payload is irrelevant (only the deleter matters); it
    // aliases `this` so the pointer is non-null and trivially valid for
    // the gate's lifetime, which callers are required to outlive anyway.
    out.token = std::shared_ptr<void>(static_cast<void*>(this),
                                      [this, key](void*) { release(key); });
    return out;
}

void SynthGate::release(const std::string& key) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        leaders_.erase(key);
    }
    cv_.notify_all();
}

std::size_t SynthGate::waits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return waits_;
}

} // namespace socgen::core
