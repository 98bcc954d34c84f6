#pragma once

#include <optional>
#include <string>

namespace socgen {

/// Reads a string-valued environment override verbatim. Returns nullopt
/// when unset or empty (an empty value means "no override" everywhere).
[[nodiscard]] std::optional<std::string> envString(const char* name);

} // namespace socgen
