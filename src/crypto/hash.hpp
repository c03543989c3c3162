#pragma once

/// \file hash.hpp
/// Hash functions used by the protocols:
///  * SHA-256 (FIPS 180-4) — commitments, transcript checks, key derivation.
///  * SipHash-2-4 — fast keyed 64-bit PRF.
///  * CrHash — the tweakable correlation-robust hash H(i, x) -> Block128
///    used on the hot paths of garbling and OT extension. Production
///    implementations use fixed-key AES; here it is built from two
///    independently keyed SipHash instances (no AES library), which
///    leaves the protocol structure unchanged. The hot paths hash in
///    batches (cr_hash_batch): one SIMD kernel call runs the same
///    function over many inputs, one SipHash state per vector lane, so
///    batching changes the speed and not a single output bit.

#include <array>
#include <cstdint>
#include <span>

#include "crypto/block.hpp"

namespace c2pi::crypto {

/// Streaming SHA-256.
class Sha256 {
public:
    Sha256();
    void update(std::span<const std::uint8_t> data);
    /// Finalise and return the 32-byte digest. The object must not be
    /// reused afterwards.
    [[nodiscard]] std::array<std::uint8_t, 32> finish();

    [[nodiscard]] static std::array<std::uint8_t, 32> digest(std::span<const std::uint8_t> data);

private:
    void compress(const std::uint8_t block[64]);

    std::uint32_t h_[8];
    std::uint8_t buffer_[64];
    std::size_t buffer_len_ = 0;
    std::uint64_t total_len_ = 0;
};

/// SipHash-2-4 keyed 64-bit hash (Aumasson & Bernstein).
[[nodiscard]] std::uint64_t siphash24(const Block128& key, std::span<const std::uint8_t> data);

/// Tweakable correlation-robust hash: H(tweak, x) -> 128-bit block.
[[nodiscard]] Block128 cr_hash(std::uint64_t tweak, const Block128& x);

/// The low word of cr_hash at half the cost: cr_hash_u64(t, x) ==
/// cr_hash(t, x).lo. Used where a caller keeps only 64 bits or fewer of
/// an OT output (ring-element masks, bit triples).
[[nodiscard]] std::uint64_t cr_hash_u64(std::uint64_t tweak, const Block128& x);

/// out[i] = cr_hash(tweak + i * step, x[i] ^ offset) for every i < x.size()
/// (out.size() == x.size()), in one call of the active kernel tier's
/// cr_hash_batch. step 1 hashes consecutive random OTs; step 0 hashes many
/// labels under one gate's tweak.
void cr_hash_batch(std::span<const Block128> x, std::uint64_t tweak, std::uint64_t step,
                   const Block128& offset, std::span<Block128> out);

/// The low words alone, at half the cost: out[i] = cr_hash_u64(tweak + i *
/// step, x[i] ^ offset).
void cr_hash_batch(std::span<const Block128> x, std::uint64_t tweak, std::uint64_t step,
                   const Block128& offset, std::span<std::uint64_t> out);

}  // namespace c2pi::crypto
