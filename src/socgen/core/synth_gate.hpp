#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <string>

namespace socgen::core {

/// In-flight HLS dedupe across concurrent flows sharing one artifact
/// store: the first flow to claim an artifact key becomes its *leader*
/// and synthesizes; any other flow claiming the same key blocks until
/// the leader releases. Every claimant then re-checks the cache/store
/// (a leader may also have released just before the claim) instead of
/// paying for the same synthesis twice. The persistent store dedupes
/// *across* runs; this gate dedupes *within* a run, where two tenants
/// submit the identical kernel seconds apart and the store object does
/// not exist yet.
///
/// Deadlock freedom: a leader releases from its own stage task (or on
/// unwind, via the token's deleter) and never blocks on pool capacity
/// to do so, so a waiting follower always eventually proceeds. If a
/// leader *fails*, the follower finds no cached object and simply
/// becomes the next leader — dedupe is an optimisation, never a
/// correctness dependency.
class SynthGate {
public:
    struct Claim {
        /// Leadership token for the key. Destroying the last copy
        /// releases the key, so an exception anywhere on the leader's
        /// path can never strand followers. The happy path resets it
        /// explicitly right after persisting the artifact, so followers
        /// wake to a store hit.
        std::shared_ptr<void> token;
    };

    /// Blocks while another flow leads `key`; returns with the caller
    /// as the key's new leader.
    [[nodiscard]] Claim claim(const std::string& key);

    /// Number of claims that had to wait for a leader — the in-flight
    /// dedupe opportunities observed so far.
    [[nodiscard]] std::size_t waits() const;

private:
    void release(const std::string& key);

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::set<std::string> leaders_;
    std::size_t waits_ = 0;
};

} // namespace socgen::core
