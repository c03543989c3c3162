#pragma once

/// \file key_pool.hpp
/// One party's preprocessed FSS ReLU key material for one session.
///
/// The preprocessing phase deals the whole plan's comparisons in one
/// batch (pi::count_fss_comparisons, before the layer walk); the online
/// nonlinear layers take from it in dealing order. Both parties take the
/// same counts in the same order, so the dealer never has to signal
/// "which key is next". The batch is built before push (the dealer's
/// and the client decoder's tiles fill it on the model's thread pool);
/// after that only the session's protocol thread touches a party's pool,
/// so it takes no lock.

#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "fss/compare.hpp"

namespace c2pi::fss {

/// std::allocator whose value-initialization (vector(n), resize(n))
/// writes nothing, so a fresh KeyBatch costs no serial pass over its
/// storage. Every other construction is the usual placement new.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
        using other = UninitializedAllocator<U>;
    };

    UninitializedAllocator() = default;
    template <typename U>
    UninitializedAllocator(const UninitializedAllocator<U>& /*other*/) noexcept {}

    template <typename U>
    void construct(U* /*slot*/) noexcept {}
    template <typename U, typename... Args>
    void construct(U* slot, Args&&... args) {
        ::new (static_cast<void*>(slot)) U(std::forward<Args>(args)...);
    }
};

/// One party's records for a session. KeyBatch(n) allocates n records
/// without initializing them; the tile that deals or decodes record i
/// constructs it in place (placement new) before anything reads it. So
/// the batch's pages are first written by the pool's tiles, not by a
/// serial zero-fill. Destroying a record is a no-op, so a batch may also
/// drop records no tile reached (a dealer that failed midway).
using KeyBatch = std::vector<ReluKeyShare, UninitializedAllocator<ReluKeyShare>>;
static_assert(std::is_trivially_destructible_v<ReluKeyShare>);

class KeyPool {
public:
    /// Keys not yet taken.
    [[nodiscard]] std::size_t size() const { return keys_.size() - next_; }

    /// Install the session's batch. Throws c2pi::Error while keys of an
    /// earlier batch remain: a session deals once.
    void push(KeyBatch batch) {
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
    KeyBatch keys_;
    std::size_t next_ = 0;  ///< keys_[0, next_) are taken
};

}  // namespace c2pi::fss
