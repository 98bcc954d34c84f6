#include "socgen/common/strings.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace socgen {

std::string format(const char* fmt, ...) {
    // One vsnprintf into a stack buffer covers nearly every call; only a
    // longer result pays a second pass, straight into the string.
    char buffer[256];
    std::va_list args;
    va_start(args, fmt);
    std::va_list argsCopy;
    va_copy(argsCopy, args);
    const int needed = std::vsnprintf(buffer, sizeof buffer, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0 && static_cast<std::size_t>(needed) < sizeof buffer) {
        out.assign(buffer, static_cast<std::size_t>(needed));
    } else if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, argsCopy);
    }
    va_end(argsCopy);
    return out;
}

std::vector<std::string> split(std::string_view text, std::string_view separators) {
    std::vector<std::string> pieces;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || separators.find(text[i]) != std::string_view::npos) {
            if (i > start) {
                pieces.emplace_back(text.substr(start, i - start));
            }
            start = i + 1;
        }
    }
    return pieces;
}

std::string_view trim(std::string_view text) {
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool startsWith(std::string_view text, std::string_view prefix) {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view text, std::string_view suffix) {
    return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& pieces, std::string_view separator) {
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i != 0) {
            out.append(separator);
        }
        out.append(pieces[i]);
    }
    return out;
}

std::string toLower(std::string_view text) {
    std::string out(text);
    for (char& c : out) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

bool isIdentifier(std::string_view text) {
    if (text.empty()) {
        return false;
    }
    const auto alpha = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    };
    const auto alnum = [&](char c) { return alpha(c) || (c >= '0' && c <= '9'); };
    if (!alpha(text.front())) {
        return false;
    }
    for (char c : text.substr(1)) {
        if (!alnum(c)) {
            return false;
        }
    }
    return true;
}

void appendIdentifier(std::string& out, std::string_view text) {
    if (text.empty() || (text.front() >= '0' && text.front() <= '9')) {
        out.push_back('x');
    }
    for (char c : text) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
}

std::string sanitizeIdentifier(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 1);
    appendIdentifier(out, text);
    return out;
}

std::size_t countLines(std::string_view text) {
    if (text.empty()) {
        return 0;
    }
    std::size_t lines = 0;
    for (char c : text) {
        if (c == '\n') {
            ++lines;
        }
    }
    if (text.back() != '\n') {
        ++lines;
    }
    return lines;
}

std::size_t countNonSpaceChars(std::string_view text) {
    std::size_t count = 0;
    for (char c : text) {
        if (std::isspace(static_cast<unsigned char>(c)) == 0) {
            ++count;
        }
    }
    return count;
}

std::uint64_t fnv1a64(std::string_view data) {
    std::uint64_t hash = 1469598103934665603ULL;
    for (char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace socgen
