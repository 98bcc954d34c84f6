#include "socgen/soc/memory.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"
#include "socgen/sim/engine.hpp"

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

bool Memory::owe(sim::Component& debtor, std::uint64_t first, std::uint64_t count) {
    const std::uint64_t end = first + count;
    for (const Debt& debt : debts_) {
        if (debt.debtor != &debtor && debt.first < end && first < debt.end) {
            return false;
        }
    }
    if (eccEnabled_) {
        for (std::uint64_t w = first; w < end; ++w) {
            if (uncorrectable(w)) {
                return false;
            }
        }
    }
    debts_.push_back(Debt{first, end, &debtor});
    return true;
}

void Memory::release(const sim::Component& debtor) {
    std::erase_if(debts_, [&](const Debt& debt) { return debt.debtor == &debtor; });
}

void Memory::settleDebtors(std::uint64_t wordAddress) const {
    for (std::size_t i = 0; i < debts_.size();) {
        if (wordAddress < debts_[i].first || wordAddress >= debts_[i].end) {
            ++i;
            continue;
        }
        // Waking the debtor releases its ranges; rescan what is left.
        sim::Component& debtor = *debts_[i].debtor;
        debtor.wake();
        std::erase_if(debts_, [&](const Debt& debt) { return debt.debtor == &debtor; });
        i = 0;
    }
}

bool Memory::uncorrectable(std::uint64_t wordAddress) const {
    const std::uint64_t pageIndex = wordAddress / kPageWords;
    const auto at = [&](const Directory& directory) -> std::uint32_t {
        return pageIndex < directory.size() && !directory[pageIndex].empty()
                   ? directory[pageIndex][wordAddress % kPageWords]
                   : 0;
    };
    return std::popcount(at(pages_) ^ at(eccPages_)) > 1;
}

std::uint32_t Memory::readGuarded(std::uint64_t wordAddress) const {
    if (!debts_.empty()) {
        settleDebtors(wordAddress);
    }
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

void Memory::writeGuarded(std::uint64_t wordAddress, std::uint32_t value) {
    if (!debts_.empty()) {
        settleDebtors(wordAddress);
    }
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
    if (!debts_.empty()) {
        settleDebtors(wordAddress);
    }
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
