#pragma once

#include <optional>
#include <string>

namespace socgen {

/// Reads a positive-integer environment override. Returns nullopt when
/// the variable is unset or empty; throws socgen::Error with a
/// diagnostic naming the variable and the offending text when the value
/// is not a positive decimal integer ("0", "abc", "4x", "-2", ...).
/// A malformed override used to be silently ignored, which meant a typo
/// like SOCGEN_FLOW_JOBS=fourr ran the flow serially without a word.
[[nodiscard]] std::optional<unsigned> envUnsigned(const char* name);

/// Reads a string-valued environment override verbatim. Returns nullopt
/// when unset or empty (an empty value means "no override" everywhere).
[[nodiscard]] std::optional<std::string> envString(const char* name);

} // namespace socgen
