#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace socgen {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

namespace detail {
inline void appendPart(std::string& out, std::string_view text) { out.append(text); }
template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
void appendPart(std::string& out, T value) {
    char digits[24] = {};
    out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}
} // namespace detail

/// Concatenates text pieces and integers (in decimal, as printf's %d
/// family writes them) into one string: the generated-name paths of the
/// netlist builders, without printf's parsing.
template <typename... Parts>
std::string concat(const Parts&... parts) {
    std::string out;
    (detail::appendPart(out, parts), ...);
    return out;
}

/// Splits on any character in `separators`, dropping empty pieces.
std::vector<std::string> split(std::string_view text, std::string_view separators);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` starts with / ends with the given prefix/suffix.
bool startsWith(std::string_view text, std::string_view prefix);
bool endsWith(std::string_view text, std::string_view suffix);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces, std::string_view separator);

/// Lower-cases ASCII.
std::string toLower(std::string_view text);

/// A valid identifier for generated HDL/Tcl/C: [A-Za-z_][A-Za-z0-9_]*.
bool isIdentifier(std::string_view text);

/// Replaces every character that is not [A-Za-z0-9_] with '_', prefixing
/// 'x' if the result would start with a digit. Used when deriving HDL
/// entity names and /dev node names from user-visible node names.
std::string sanitizeIdentifier(std::string_view text);

/// Appends sanitizeIdentifier(text) to `out` without a temporary string.
void appendIdentifier(std::string& out, std::string_view text);

/// Counts '\n'-separated lines (a trailing fragment without newline counts).
std::size_t countLines(std::string_view text);

/// Counts characters excluding ASCII whitespace — the metric used by the
/// paper's Section VI-C Tcl-vs-DSL comparison.
std::size_t countNonSpaceChars(std::string_view text);

/// FNV-1a 64-bit hash; used for deterministic pseudo-randomness in the
/// synthesis model and for bitstream content digests.
std::uint64_t fnv1a64(std::string_view data);

} // namespace socgen
