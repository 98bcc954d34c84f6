#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace socgen::sim {
class Component;
}

namespace socgen::soc {

/// Word-addressed DDR model (the Zedboard's 512 MB DDR3, shared between
/// the ARM PS and the PL masters through the HP ports). Storage is
/// allocated page-wise on first touch so large address spaces stay cheap;
/// a dense page directory, grown to the highest page touched, finds a
/// word's page with one index.
/// All PL-side transfers operate on 32-bit words, which matches the DMA
/// data width configured by the flow.
class Memory {
public:
    static constexpr std::size_t kPageWords = 1024;

    [[nodiscard]] std::uint32_t readWord(std::uint64_t wordAddress) const {
        if (eccEnabled_ || !debts_.empty()) {
            return readGuarded(wordAddress);
        }
        ++reads_;
        return word(wordAddress);
    }
    void writeWord(std::uint64_t wordAddress, std::uint32_t value) {
        if (eccEnabled_ || !debts_.empty()) {
            writeGuarded(wordAddress, value);
            return;
        }
        ++writes_;
        word(wordAddress) = value;
    }

    /// Bulk helpers used by the PS model and tests.
    void writeBlock(std::uint64_t wordAddress, std::span<const std::uint32_t> data);
    [[nodiscard]] std::vector<std::uint32_t> readBlock(std::uint64_t wordAddress,
                                                       std::size_t count) const;

    [[nodiscard]] std::size_t pagesAllocated() const { return pagesAllocated_; }

    // -- ECC (behavioral SECDED model) ---------------------------------------
    // When enabled, every word carries check information: reads correct a
    // single flipped bit in place (counting it) and throw SimulationError
    // on a multi-bit upset, naming the word address. Disabled by default —
    // without ECC an injected flip is silent corruption, which is exactly
    // what the resilience tests contrast against.
    void setEccEnabled(bool enabled);
    [[nodiscard]] bool eccEnabled() const { return eccEnabled_; }
    [[nodiscard]] std::uint64_t eccCorrectedCount() const { return eccCorrected_; }

    /// Fault hook: flips one storage bit *without* updating the ECC check
    /// word, as a particle strike would.
    void injectBitFlip(std::uint64_t wordAddress, unsigned bit);

    // -- owed accesses (DESIGN.md §16) ----------------------------------------
    /// Registers words [first, first + count) as words `debtor`, asleep,
    /// may owe reads or writes of: any access to one of them — a read, a
    /// write or a bit flip — wakes the debtor first, so that it makes the
    /// accesses it owes before. Returns false, registering nothing, when the
    /// range overlaps another debtor's (their owed accesses could not be
    /// ordered) or, with ECC on, holds a word a read would find
    /// uncorrectable.
    bool owe(sim::Component& debtor, std::uint64_t first, std::uint64_t count);
    /// Drops every range `debtor` registered. The debtor calls it when
    /// woken, before it makes its owed accesses.
    void release(const sim::Component& debtor);

    // -- statistics ----------------------------------------------------------
    [[nodiscard]] std::uint64_t readCount() const { return reads_; }
    [[nodiscard]] std::uint64_t writeCount() const { return writes_; }

private:
    struct Debt {
        std::uint64_t first = 0;
        std::uint64_t end = 0;
        sim::Component* debtor = nullptr;
    };

    /// readWord / writeWord with ECC on or a debtor asleep.
    [[nodiscard]] std::uint32_t readGuarded(std::uint64_t wordAddress) const;
    void writeGuarded(std::uint64_t wordAddress, std::uint32_t value);
    /// Wakes every debtor that owes an access to `wordAddress`.
    void settleDebtors(std::uint64_t wordAddress) const;
    /// True if ECC would find a multi-bit error reading `wordAddress`;
    /// allocates no page.
    [[nodiscard]] bool uncorrectable(std::uint64_t wordAddress) const;

    /// Page directory by page index; an empty page is not yet touched.
    using Directory = std::vector<std::vector<std::uint32_t>>;

    mutable Directory pages_;
    mutable Directory eccPages_;
    mutable std::size_t pagesAllocated_ = 0;
    mutable std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    bool eccEnabled_ = false;
    mutable std::uint64_t eccCorrected_ = 0;
    /// Owed ranges; empty (one branch per access) unless a DMA sleeps
    /// owing accesses.
    mutable std::vector<Debt> debts_;

    /// The storage of `wordAddress` in `directory`, allocating its page
    /// on first touch (counted in `allocated` when given).
    [[nodiscard]] static std::uint32_t& slot(Directory& directory, std::uint64_t wordAddress,
                                             std::size_t* allocated) {
        const std::uint64_t pageIndex = wordAddress / kPageWords;
        if (pageIndex < directory.size() && !directory[pageIndex].empty()) {
            return directory[pageIndex][wordAddress % kPageWords];
        }
        return allocate(directory, pageIndex, allocated)[wordAddress % kPageWords];
    }
    [[nodiscard]] static std::vector<std::uint32_t>& allocate(Directory& directory,
                                                              std::uint64_t pageIndex,
                                                              std::size_t* allocated);
    [[nodiscard]] std::uint32_t& word(std::uint64_t wordAddress) const {
        return slot(pages_, wordAddress, &pagesAllocated_);
    }
    [[nodiscard]] std::uint32_t& eccWord(std::uint64_t wordAddress) const {
        return slot(eccPages_, wordAddress, nullptr);
    }
};

} // namespace socgen::soc
