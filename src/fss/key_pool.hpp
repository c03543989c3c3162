#pragma once

/// \file key_pool.hpp
/// Buffer of preprocessed FSS ReLU key material, one per session party.
///
/// The preprocessing phase fills the pool with one `ReluKeyShare` per
/// upcoming comparison (sized from the compiled layer plan); the online
/// nonlinear layers drain it FIFO. Both parties' pools stay equal-sized
/// by construction — prefill counts derive from the shared plan and
/// every secure_relu consumes and replenishes symmetrically — so the
/// dealer never has to signal "which key is next".
///
/// Pushed batches are kept whole, and a take inside one batch hands out
/// a view of it rather than a copy: at ~4 KiB per comparison a session's
/// material is tens of MiB, so the pool never copies it key by key.
///
/// Mutex-guarded: a session runs its protocol on one thread, but pools
/// live inside PartyContext which the serving pool exercises under TSan,
/// and a cheap uncontended lock keeps the invariant local.

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "fss/compare.hpp"

namespace c2pi::fss {

class KeyPool {
public:
    /// Keys handed out by take(): `keys` views storage that `owner`
    /// keeps alive, so the run stays valid after the pool moves on.
    struct Run {
        std::shared_ptr<const std::vector<ReluKeyShare>> owner;
        std::span<const ReluKeyShare> keys;
    };

    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    void push(std::vector<ReluKeyShare> batch) {
        if (batch.empty()) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        size_ += batch.size();
        batches_.push_back(std::make_shared<const std::vector<ReluKeyShare>>(std::move(batch)));
    }

    /// Remove and return the n oldest keys; throws if fewer are pooled
    /// (the caller is responsible for replenishing first). Copies only
    /// when the n keys straddle two pushed batches.
    [[nodiscard]] Run take(std::size_t n) {
        const std::lock_guard<std::mutex> lock(mutex_);
        require(size_ >= n, "fss::KeyPool: not enough preprocessed keys");
        if (n == 0) return {};
        size_ -= n;
        if (batches_.front()->size() - front_taken_ >= n) {
            Run run{batches_.front(), std::span(*batches_.front()).subspan(front_taken_, n)};
            advance(n);
            return run;
        }
        auto joined = std::make_shared<std::vector<ReluKeyShare>>();
        joined->reserve(n);
        while (joined->size() < n) {
            const std::vector<ReluKeyShare>& front = *batches_.front();
            const std::size_t k = std::min(n - joined->size(), front.size() - front_taken_);
            const auto first = front.begin() + static_cast<std::ptrdiff_t>(front_taken_);
            joined->insert(joined->end(), first, first + static_cast<std::ptrdiff_t>(k));
            advance(k);
        }
        return {joined, *joined};
    }

private:
    /// Mark k keys of the front batch taken; drop the batch once spent.
    void advance(std::size_t k) {
        front_taken_ += k;
        if (front_taken_ == batches_.front()->size()) {
            batches_.pop_front();
            front_taken_ = 0;
        }
    }

    mutable std::mutex mutex_;
    std::deque<std::shared_ptr<const std::vector<ReluKeyShare>>> batches_;
    std::size_t front_taken_ = 0;  ///< keys already taken from batches_.front()
    std::size_t size_ = 0;
};

}  // namespace c2pi::fss
