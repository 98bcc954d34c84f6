#include "socgen/common/env.hpp"

#include <cstdlib>

namespace socgen {

std::optional<std::string> envString(const char* name) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') {
        return std::nullopt;
    }
    return std::string(raw);
}

} // namespace socgen
