#pragma once

#include "socgen/rtl/netlist.hpp"

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace socgen::rtl {

/// A name written the way sanitizeIdentifier renders it.
struct Identifier {
    std::string_view text;
};

/// The append-only text buffer both HDL emitters write into: one
/// std::string, integers rendered with std::to_chars, identifiers
/// sanitized in place.
class HdlWriter {
public:
    explicit HdlWriter(std::size_t reserveBytes) { text_.reserve(reserveBytes); }

    HdlWriter& operator<<(std::string_view text) {
        text_.append(text);
        return *this;
    }
    HdlWriter& operator<<(char c) {
        text_.push_back(c);
        return *this;
    }
    HdlWriter& operator<<(Identifier name);

    template <std::integral T>
        requires(!std::same_as<T, char> && !std::same_as<T, bool>)
    HdlWriter& operator<<(T value) {
        char digits[24];
        const auto result = std::to_chars(digits, digits + sizeof digits, value);
        text_.append(digits, result.ptr);
        return *this;
    }

    [[nodiscard]] std::size_t size() const { return text_.size(); }

    [[nodiscard]] std::string take() { return std::move(text_); }

private:
    std::string text_;
};

/// Every net's HDL signal name, `<prefix><id>_<sanitized net name>`,
/// rendered once per emit into one buffer and looked up by net id. The id
/// keeps the names unique and clear of the entity's port names.
class NetNames {
public:
    NetNames(const Netlist& netlist, char prefix);

    [[nodiscard]] std::string_view operator[](NetId id) const {
        return {text_.data() + begin_[id], begin_[id + 1] - begin_[id]};
    }

    /// Total bytes of all names, for sizing the emitter's buffer.
    [[nodiscard]] std::size_t bytes() const { return text_.size(); }

private:
    std::string text_;
    std::vector<std::size_t> begin_;  ///< net `id` spans [begin_[id], begin_[id + 1])
};

} // namespace socgen::rtl
