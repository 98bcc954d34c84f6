#include "socgen/common/env.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <cstdlib>

namespace socgen {

std::optional<unsigned> envUnsigned(const char* name) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') {
        return std::nullopt;
    }
    unsigned long value = 0;
    bool any = false;
    for (const char* p = raw; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') {
            throw Error(format("env %s: invalid value '%s' (expected a positive "
                               "decimal integer)",
                               name, raw));
        }
        value = value * 10 + static_cast<unsigned long>(*p - '0');
        if (value > 1'000'000) {
            throw Error(format("env %s: value '%s' is out of range", name, raw));
        }
        any = true;
    }
    if (!any || value == 0) {
        throw Error(format("env %s: invalid value '%s' (expected a positive "
                           "decimal integer)",
                           name, raw));
    }
    return static_cast<unsigned>(value);
}

std::optional<std::string> envString(const char* name) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') {
        return std::nullopt;
    }
    return std::string(raw);
}

} // namespace socgen
