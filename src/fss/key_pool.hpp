#pragma once

/// \file key_pool.hpp
/// One party's preprocessed FSS ReLU key material for one session.
///
/// The preprocessing phase deals the whole plan's comparisons in one
/// batch (pi::count_fss_comparisons, before the layer walk); the online
/// nonlinear layers take from it in dealing order. Both parties take the
/// same counts in the same order, so the dealer never has to signal
/// "which key is next". The batch is built before push (the dealer's
/// and the client decoder's tiles may fill it on the model's thread
/// pool); after that only the session's protocol thread touches a
/// party's pool, so it takes no lock.

#include <span>
#include <vector>

#include "core/error.hpp"
#include "fss/compare.hpp"

namespace c2pi::fss {

class KeyPool {
public:
    /// Keys not yet taken.
    [[nodiscard]] std::size_t size() const { return keys_.size() - next_; }

    /// Install the session's batch. Throws c2pi::Error while keys of an
    /// earlier batch remain: a session deals once.
    void push(std::vector<ReluKeyShare> batch) {
        require(size() == 0, "fss::KeyPool: keys of an earlier batch remain");
        keys_ = std::move(batch);
        next_ = 0;
    }

    /// The next n keys, valid until the next push; throws c2pi::Error if
    /// fewer remain.
    [[nodiscard]] std::span<const ReluKeyShare> take(std::size_t n) {
        require(size() >= n, "fss::KeyPool: not enough preprocessed keys");
        const std::span<const ReluKeyShare> run(keys_.data() + next_, n);
        next_ += n;
        return run;
    }

private:
    std::vector<ReluKeyShare> keys_;
    std::size_t next_ = 0;  ///< keys_[0, next_) are taken
};

}  // namespace c2pi::fss
