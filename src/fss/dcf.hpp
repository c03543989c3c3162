#pragma once

/// \file dcf.hpp
/// Distributed comparison function (DCF) over the 64-bit ring — the
/// function-secret-sharing primitive behind the kFss nonlinear backend.
///
/// A DCF for (alpha, beta) splits the comparison function
///     f(x) = beta if x < alpha else 0        (unsigned, over Z_{2^64})
/// into two keys k0, k1 such that Eval(0, k0, x) + Eval(1, k1, x) = f(x)
/// for every x, while either key alone reveals nothing about alpha or
/// beta. The construction is the GGM-tree DCF of Boyle et al.
/// (EUROCRYPT 2021, "Function Secret Sharing for Mixed-Mode and
/// Fixed-Point Secure Computation"): one 128-bit seed per party walks a
/// depth-64 binary tree, with one correction word per level plus a final
/// output correction. Keys are input-independent, so generation hoists
/// into the preprocessing phase (compare.hpp builds each ReLU comparison
/// from one DCF at alpha = r + 2^63, evaluated at z and at z + 2^63, the
/// interval-containment gate of the same paper; key_pool.hpp holds the
/// session's batch).
///
/// The payload group is Z_{2^64} x Z_{2^64} (`DcfPayload`): the interval-
/// containment trick needs shares of both the predicate bit and
/// predicate*mask, and one 128-bit PRG block converts to exactly one
/// payload. The per-node PRG is one ChaCha20 block keyed by the node seed
/// (64 bytes -> left/right child seeds + left/right payload converts).
///
/// Generation and evaluation walk many keys' trees level-synchronously:
/// a tile of up to kDcfTile trees descends all 64 levels before the next
/// tile starts, and each level expands every node of the tile in one
/// call to the kernel table's multi-seed ChaCha20 entry
/// (he::kernels::Kernels::chacha20_seeded_blocks, 16 seeds per AVX-512
/// pass). Tiles keep a level's correction-word traffic inside the cache;
/// stepping a whole layer in lockstep would touch one line per key
/// across every key of the layer. A dealing tile is kDcfTile comparisons
/// (one tree each); an evaluation tile is kDcfTile / 2 comparisons, each
/// key walked at its two points, so both walks of a key read its
/// correction words from the cache. The single-key dcf_gen/dcf_eval are
/// one-element calls into the same walk, so keys and outputs do not
/// depend on how calls are batched.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/fixed_point.hpp"
#include "crypto/chacha20.hpp"

namespace c2pi::fss {

inline constexpr int kDomainBits = 64;

/// Keys per tile of the level-synchronous walk (see the file comment).
inline constexpr std::size_t kDcfTile = 64;

/// Element of the DCF payload group Z_{2^64} x Z_{2^64}, componentwise
/// addition. `u` carries the comparison predicate, `v` carries
/// predicate * mask (see compare.hpp).
struct DcfPayload {
    Ring u = 0;
    Ring v = 0;

    friend DcfPayload operator+(const DcfPayload& a, const DcfPayload& b) {
        return {a.u + b.u, a.v + b.v};
    }
    friend DcfPayload operator-(const DcfPayload& a, const DcfPayload& b) {
        return {a.u - b.u, a.v - b.v};
    }
    DcfPayload& operator+=(const DcfPayload& b) {
        u += b.u;
        v += b.v;
        return *this;
    }
    [[nodiscard]] DcfPayload negated() const { return {Ring{0} - u, Ring{0} - v}; }
    friend bool operator==(const DcfPayload&, const DcfPayload&) = default;
};

/// One party's half of a DCF: the root seed plus per-level correction
/// words. The party id (0 or 1) is NOT part of the key — Eval takes it
/// explicitly, matching the server/client roles of the session.
struct DcfKey {
    crypto::Block128 root;
    std::array<crypto::Block128, kDomainBits> seed_cw;
    std::array<DcfPayload, kDomainBits> value_cw;
    std::uint64_t t_cw_left = 0;   ///< bit i = level i's left control correction
    std::uint64_t t_cw_right = 0;  ///< bit i = level i's right control correction
    DcfPayload final_cw;

    /// Fixed serialized size (codec in dcf.cpp): root + per-level seed and
    /// value corrections + packed control bits + final correction.
    static constexpr std::size_t kSerializedBytes =
        16 + kDomainBits * 16 + kDomainBits * 16 + 8 + 8 + 16;

    void serialize_into(std::uint8_t* out) const;
    [[nodiscard]] static DcfKey deserialize(const std::uint8_t* in);
};

struct DcfKeyPair {
    DcfKey k0, k1;
};

/// One DCF to generate: the comparison point, the payload and the two
/// parties' root seeds (the dealer's randomness, drawn by the caller).
struct DcfGenInput {
    Ring alpha = 0;
    DcfPayload beta;
    crypto::Block128 root0, root1;
};

/// Generate the key pair of every in[i] into *k0[i] (party 0) and *k1[i]
/// (party 1), kDcfTile trees at a time. The three spans have equal size.
void dcf_gen_batch(std::span<const DcfGenInput> in, std::span<DcfKey* const> k0,
                   std::span<DcfKey* const> k1);

/// out[i] = one party's share of f_i(xs[i]) under *keys[i], kDcfTile
/// trees at a time. The three spans have equal size.
void dcf_eval_batch(std::span<const DcfKey* const> keys, int party, std::span<const Ring> xs,
                    std::span<DcfPayload> out);

/// Generate a DCF key pair for f(x) = beta if x < alpha else 0. `prg`
/// supplies the two root seeds (the dealer's local randomness). In the
/// session protocol the server deals both halves (docs/PROTOCOL.md §4),
/// so it knows every alpha, which for ReLU material is the mask r.
[[nodiscard]] DcfKeyPair dcf_gen(Ring alpha, const DcfPayload& beta, crypto::ChaCha20Prg& prg);

/// Evaluate one party's key share at x; the two parties' results sum to
/// f(x) in the payload group.
[[nodiscard]] DcfPayload dcf_eval(const DcfKey& key, int party, Ring x);

}  // namespace c2pi::fss
