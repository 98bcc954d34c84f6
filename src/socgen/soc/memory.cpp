#include "socgen/soc/memory.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <bit>

namespace socgen::soc {

std::vector<std::uint32_t>& Memory::allocate(Directory& directory, std::uint64_t pageIndex,
                                             std::size_t* allocated) {
    if (pageIndex >= directory.size()) {
        directory.resize(pageIndex + 1);
    }
    std::vector<std::uint32_t>& page = directory[pageIndex];
    if (page.empty()) {
        page.assign(kPageWords, 0);
        if (allocated != nullptr) {
            ++*allocated;
        }
    }
    return page;
}

std::uint32_t Memory::readWord(std::uint64_t wordAddress) const {
    ++reads_;
    std::uint32_t& stored = word(wordAddress);
    if (eccEnabled_) {
        const std::uint32_t check = eccWord(wordAddress);
        const std::uint32_t diff = stored ^ check;
        if (diff != 0) {
            if (std::popcount(diff) == 1) {
                // Single-bit upset: correct in place, as SECDED hardware
                // scrubbing would.
                stored = check;
                ++eccCorrected_;
            } else {
                throw SimulationError(format(
                    "DDR ECC: uncorrectable multi-bit error at word 0x%llx "
                    "(read 0x%08x, expected 0x%08x)",
                    static_cast<unsigned long long>(wordAddress), stored, check));
            }
        }
    }
    return stored;
}

void Memory::writeWord(std::uint64_t wordAddress, std::uint32_t value) {
    ++writes_;
    word(wordAddress) = value;
    if (eccEnabled_) {
        eccWord(wordAddress) = value;
    }
}

void Memory::setEccEnabled(bool enabled) {
    if (enabled && !eccEnabled_) {
        // Snapshot the check words for everything already written.
        eccPages_ = pages_;
    }
    eccEnabled_ = enabled;
    if (!enabled) {
        eccPages_.clear();
    }
}

void Memory::injectBitFlip(std::uint64_t wordAddress, unsigned bit) {
    word(wordAddress) ^= (1U << (bit & 31U));
}

void Memory::writeBlock(std::uint64_t wordAddress, std::span<const std::uint32_t> data) {
    for (std::size_t i = 0; i < data.size(); ++i) {
        writeWord(wordAddress + i, data[i]);
    }
}

std::vector<std::uint32_t> Memory::readBlock(std::uint64_t wordAddress,
                                             std::size_t count) const {
    std::vector<std::uint32_t> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = readWord(wordAddress + i);
    }
    return out;
}

} // namespace socgen::soc
