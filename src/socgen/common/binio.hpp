#pragma once

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace socgen {

/// Flat little-endian byte stream primitives of the HlsResult artifact
/// encoding (hls/serialize). The reader bounds-checks
/// every access and throws CodecError, so a truncated or bit-flipped
/// payload is always a clean, typed failure — never undefined behaviour.

class BinWriter {
public:
    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
        }
    }

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
        }
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(std::string_view s) {
        u64(s.size());
        out_.append(s);
    }

    template <typename T, typename Fn>
    void vec(const std::vector<T>& items, Fn&& putItem) {
        u64(items.size());
        for (const T& item : items) {
            putItem(item);
        }
    }

    [[nodiscard]] std::string take() { return std::move(out_); }

private:
    std::string out_;
};

class BinReader {
public:
    explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t u8() { return static_cast<std::uint8_t>(raw(1)[0]); }

    std::uint32_t u32() {
        const char* p = raw(4);
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i) {
            v = (v << 8) | static_cast<unsigned char>(p[i]);
        }
        return v;
    }

    std::uint64_t u64() {
        const char* p = raw(8);
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i) {
            v = (v << 8) | static_cast<unsigned char>(p[i]);
        }
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double f64() {
        const std::uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str() {
        const std::uint64_t n = size();
        return std::string(raw(n), n);
    }

    /// Element count with a sanity cap: each element needs >= 1 byte, so a
    /// count beyond the remaining bytes is certain corruption.
    std::uint64_t size() {
        const std::uint64_t n = u64();
        if (n > bytes_.size() - pos_) {
            throw CodecError(format("implausible element count %llu at offset %zu",
                                    static_cast<unsigned long long>(n), pos_));
        }
        return n;
    }

    template <typename T, typename Fn>
    std::vector<T> vec(Fn&& getItem) {
        const std::uint64_t n = size();
        std::vector<T> items;
        items.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            items.push_back(getItem());
        }
        return items;
    }

    void expectEnd() const {
        if (pos_ != bytes_.size()) {
            throw CodecError(format("%zu trailing bytes after decoded payload",
                                    bytes_.size() - pos_));
        }
    }

    [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

private:
    const char* raw(std::uint64_t n) {
        if (n > bytes_.size() - pos_) {
            throw CodecError(format("truncated payload: need %llu bytes at offset %zu, "
                                    "have %zu",
                                    static_cast<unsigned long long>(n), pos_,
                                    bytes_.size() - pos_));
        }
        const char* p = bytes_.data() + pos_;
        pos_ += n;
        return p;
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

} // namespace socgen
