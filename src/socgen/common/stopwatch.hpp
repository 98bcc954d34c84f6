#pragma once

#include <chrono>

namespace socgen {

/// Wall-clock stopwatch for host-side measurements.
class Stopwatch {
public:
    Stopwatch() : start_(clock::now()) {}

    void reset() { start_ = clock::now(); }

    [[nodiscard]] double elapsedMs() const {
        return std::chrono::duration<double, std::milli>(clock::now() - start_).count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

} // namespace socgen
