// Differential tests for the SIMD kernel layer (he/kernels*.cpp): every
// variant the CPU can run (scalar, AVX2, AVX-512) is driven with
// identical inputs and must produce bit-identical outputs — the SIMD
// tiers are required to reproduce the scalar lazy-reduction sequence
// exactly, not merely compute congruent values. Coverage includes
// lazy-reduction boundary values (near p, 2p and 4p), non-multiple-of-
// vector-width lengths (tail loops), the small-n scalar fallback inside
// the SIMD NTTs, ChaCha20 counter propagation across 32-bit wraps, the
// multi-seed ChaCha20 entry against ChaCha20Prg, and the batched cr_hash
// against crypto::cr_hash / cr_hash_u64.

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <random>
#include <vector>

#include "crypto/chacha20.hpp"
#include "crypto/hash.hpp"
#include "he/kernels.hpp"
#include "he/modmath.hpp"
#include "he/ntt.hpp"

namespace {

using c2pi::he::u64;
namespace kernels = c2pi::he::kernels;

u64 test_prime(std::size_t n) { return c2pi::he::next_ntt_prime((1ULL << 49) + 1, 2 * n); }

/// Random values biased toward the lazy-reduction boundaries: the SIMD
/// compare/select sequences are most likely to diverge from the scalar
/// branches exactly at p, 2p and 4p.
std::vector<u64> boundary_biased(std::mt19937_64& rng, std::size_t n, u64 p, u64 bound) {
    std::vector<u64> v(n);
    const u64 edges[] = {0,      1,          p - 1,     p,     p + 1,
                         2 * p - 1, 2 * p,   2 * p + 1, 4 * p - 1, bound - 1};
    for (auto& x : v) {
        if (rng() % 4 == 0) {
            x = edges[rng() % std::size(edges)];
            if (x >= bound) x = bound - 1;
        } else {
            x = rng() % bound;
        }
    }
    return v;
}

class KernelsTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        std::cout << "[ kernels  ] active tier: " << kernels::active().name
                  << " (supported:";
        for (const auto* k : kernels::supported()) std::cout << ' ' << k->name;
        std::cout << ")\n";
    }
};

TEST_F(KernelsTest, DispatchListSane) {
    const auto& variants = kernels::supported();
    ASSERT_FALSE(variants.empty());
    EXPECT_EQ(variants.front()->tier, kernels::Tier::kScalar);
    EXPECT_NE(kernels::by_name("scalar"), nullptr);
    EXPECT_EQ(kernels::by_name("nonsense"), nullptr);
    for (const auto* k : variants) {
        EXPECT_TRUE(kernels::cpu_supports(k->tier)) << k->name;
        EXPECT_NE(k->ntt_forward, nullptr);
        EXPECT_NE(k->ntt_inverse, nullptr);
        EXPECT_NE(k->mul_shoup, nullptr);
        EXPECT_NE(k->mul_shoup_accumulate, nullptr);
        EXPECT_NE(k->mod_switch_4to2, nullptr);
        EXPECT_NE(k->chacha20_blocks, nullptr);
        EXPECT_NE(k->chacha20_seeded_blocks, nullptr);
    }
}

TEST_F(KernelsTest, NttForwardBitIdenticalAcrossVariants) {
    std::mt19937_64 rng(0xC2B1'0001);
    // Small sizes exercise the SIMD TUs' n < 16 scalar fallback; the rest
    // cover every vector stage specialisation (t = 1, 2, 4 tails).
    for (const std::size_t n : {2UL, 4UL, 8UL, 16UL, 32UL, 64UL, 256UL, 1024UL, 4096UL}) {
        const u64 p = test_prime(n);
        const c2pi::he::NttTables tables(p, n);
        for (int rep = 0; rep < 8; ++rep) {
            // Precondition of the lazy forward pass: inputs < 4p.
            const std::vector<u64> input = boundary_biased(rng, n, p, 4 * p);
            std::vector<u64> ref = input;
            tables.forward_with(*kernels::scalar_kernels(), ref);
            for (const auto* k : kernels::supported()) {
                std::vector<u64> got = input;
                tables.forward_with(*k, got);
                ASSERT_EQ(got, ref) << "variant " << k->name << " n=" << n;
            }
        }
    }
}

TEST_F(KernelsTest, NttInverseBitIdenticalAcrossVariants) {
    std::mt19937_64 rng(0xC2B1'0002);
    for (const std::size_t n : {2UL, 4UL, 8UL, 16UL, 32UL, 64UL, 256UL, 1024UL, 4096UL}) {
        const u64 p = test_prime(n);
        const c2pi::he::NttTables tables(p, n);
        for (int rep = 0; rep < 8; ++rep) {
            // Precondition of the lazy inverse pass: inputs < 2p.
            const std::vector<u64> input = boundary_biased(rng, n, p, 2 * p);
            std::vector<u64> ref = input;
            tables.inverse_with(*kernels::scalar_kernels(), ref);
            for (const auto* k : kernels::supported()) {
                std::vector<u64> got = input;
                tables.inverse_with(*k, got);
                ASSERT_EQ(got, ref) << "variant " << k->name << " n=" << n;
            }
        }
    }
}

TEST_F(KernelsTest, MulShoupBitIdenticalIncludingTails) {
    std::mt19937_64 rng(0xC2B1'0003);
    const u64 p = test_prime(4096);
    // Lengths straddling the 4- and 8-lane widths pin the tail loops.
    for (std::size_t n = 1; n <= 33; ++n) {
        const std::vector<u64> a = boundary_biased(rng, n, p, p);
        std::vector<u64> w(n), ws(n);
        for (std::size_t j = 0; j < n; ++j) {
            w[j] = rng() % p;
            ws[j] = c2pi::he::shoup_precompute(w[j], p);
        }
        std::vector<u64> ref(n);
        kernels::scalar_kernels()->mul_shoup(ref.data(), a.data(), w.data(), ws.data(), n, p);
        for (const auto* k : kernels::supported()) {
            std::vector<u64> got(n, 0xDEAD);
            k->mul_shoup(got.data(), a.data(), w.data(), ws.data(), n, p);
            ASSERT_EQ(got, ref) << "variant " << k->name << " n=" << n;
        }
    }
}

TEST_F(KernelsTest, MulShoupAccumulateBitIdenticalIncludingTails) {
    std::mt19937_64 rng(0xC2B1'0004);
    const u64 p = test_prime(4096);
    for (std::size_t n = 1; n <= 33; ++n) {
        const std::vector<u64> a = boundary_biased(rng, n, p, p);
        const std::vector<u64> acc0 = boundary_biased(rng, n, p, p);
        std::vector<u64> w(n), ws(n);
        for (std::size_t j = 0; j < n; ++j) {
            w[j] = rng() % p;
            ws[j] = c2pi::he::shoup_precompute(w[j], p);
        }
        std::vector<u64> ref = acc0;
        kernels::scalar_kernels()->mul_shoup_accumulate(ref.data(), a.data(), w.data(),
                                                        ws.data(), n, p);
        for (const auto* k : kernels::supported()) {
            std::vector<u64> got = acc0;
            k->mul_shoup_accumulate(got.data(), a.data(), w.data(), ws.data(), n, p);
            ASSERT_EQ(got, ref) << "variant " << k->name << " n=" << n;
        }
    }
}

TEST_F(KernelsTest, ModSwitchBitIdenticalIncludingTails) {
    std::mt19937_64 rng(0xC2B1'0006);
    // Four-prime chain exactly as BfvContext builds it.
    const std::size_t ring_n = 4096;
    const u64 step = 2 * ring_n;
    u64 primes[4];
    u64 start = (1ULL << 49) + 1;
    for (auto& q : primes) {
        q = c2pi::he::next_ntt_prime(start, step);
        start = q + 2;
    }
    kernels::ModSwitchConsts c;
    c.q3 = primes[2];
    c.q4 = primes[3];
    c.one_shoup_q4 = c2pi::he::reduce_precompute(primes[3]);
    c.q3_inv = c2pi::he::inv_mod(primes[2] % primes[3], primes[3]);
    c.q3_inv_shoup = c2pi::he::shoup_precompute(c.q3_inv, primes[3]);
    const c2pi::he::u128 drop = static_cast<c2pi::he::u128>(primes[2]) * primes[3];
    for (int i = 0; i < 2; ++i) {
        const u64 p = primes[i];
        c.p[i] = p;
        c.one_shoup[i] = c2pi::he::reduce_precompute(p);
        c.r64[i] = static_cast<u64>((static_cast<c2pi::he::u128>(1) << 64) % p);
        c.r64_shoup[i] = c2pi::he::shoup_precompute(c.r64[i], p);
        c.drop_inv[i] = c2pi::he::inv_mod(static_cast<u64>(drop % p), p);
        c.drop_inv_shoup[i] = c2pi::he::shoup_precompute(c.drop_inv[i], p);
    }
    for (std::size_t n = 1; n <= 33; ++n) {
        const std::vector<u64> l0 = boundary_biased(rng, n, c.p[0], c.p[0]);
        const std::vector<u64> l1 = boundary_biased(rng, n, c.p[1], c.p[1]);
        const std::vector<u64> l2 = boundary_biased(rng, n, c.q3, c.q3);
        const std::vector<u64> l3 = boundary_biased(rng, n, c.q4, c.q4);
        std::vector<u64> ref0 = l0, ref1 = l1;
        kernels::scalar_kernels()->mod_switch_4to2(ref0.data(), ref1.data(), l2.data(),
                                                   l3.data(), n, c);
        for (const auto* k : kernels::supported()) {
            std::vector<u64> got0 = l0, got1 = l1;
            k->mod_switch_4to2(got0.data(), got1.data(), l2.data(), l3.data(), n, c);
            ASSERT_EQ(got0, ref0) << "variant " << k->name << " n=" << n;
            ASSERT_EQ(got1, ref1) << "variant " << k->name << " n=" << n;
        }
    }
}

TEST_F(KernelsTest, ChaCha20BatchesBitIdenticalIncludingTails) {
    std::mt19937_64 rng(0xC2B1'0007);
    for (std::size_t nblocks = 1; nblocks <= 17; ++nblocks) {
        std::uint32_t state[16];
        for (auto& w : state) w = static_cast<std::uint32_t>(rng());
        std::vector<std::uint8_t> ref(nblocks * 64);
        kernels::scalar_kernels()->chacha20_blocks(state, ref.data(), nblocks);
        for (const auto* k : kernels::supported()) {
            std::vector<std::uint8_t> got(nblocks * 64, 0xAA);
            k->chacha20_blocks(state, got.data(), nblocks);
            ASSERT_EQ(got, ref) << "variant " << k->name << " nblocks=" << nblocks;
        }
    }
}

TEST_F(KernelsTest, ChaCha20CounterWrapsIdentically) {
    std::mt19937_64 rng(0xC2B1'0008);
    std::uint32_t state[16];
    for (auto& w : state) w = static_cast<std::uint32_t>(rng());
    // Straddle the 32-bit boundary of the 64-bit effective counter inside
    // a single batch: per-lane carry handling must match the scalar loop.
    state[12] = 0xFFFFFFFCU;
    state[13] = 0x12345678U;
    constexpr std::size_t nblocks = 12;
    std::vector<std::uint8_t> ref(nblocks * 64);
    kernels::scalar_kernels()->chacha20_blocks(state, ref.data(), nblocks);
    for (const auto* k : kernels::supported()) {
        std::vector<std::uint8_t> got(nblocks * 64, 0);
        k->chacha20_blocks(state, got.data(), nblocks);
        ASSERT_EQ(got, ref) << "variant " << k->name;
    }
}

// The multi-seed entry behind the DCF tree walk: block i must be the
// first block of a fresh ChaCha20Prg keyed by seed i. The sizes cover the
// empty call, pure tails, exact AVX2/AVX-512 widths and ragged mixes.
TEST_F(KernelsTest, ChaCha20SeededBlocksMatchPrgOnEveryTier) {
    std::mt19937_64 rng(0xC2B1'000A);
    for (const std::uint64_t nonce : {std::uint64_t{0xF55}, std::uint64_t{0x0123'4567'89AB'CDEF}}) {
        for (const std::size_t n : {0UL, 1UL, 7UL, 8UL, 15UL, 16UL, 17UL, 33UL, 100UL}) {
            std::vector<std::uint64_t> seeds(2 * n);
            for (auto& w : seeds) w = rng();
            std::vector<std::uint8_t> want(64 * n);
            for (std::size_t i = 0; i < n; ++i) {
                c2pi::crypto::ChaCha20Prg prg(c2pi::crypto::Block128{seeds[2 * i], seeds[2 * i + 1]},
                                              nonce);
                prg.fill_bytes(std::span<std::uint8_t>(want.data() + 64 * i, 64));
            }
            for (const auto* k : kernels::supported()) {
                std::vector<std::uint8_t> got(64 * n, 0xAA);
                k->chacha20_seeded_blocks(seeds.data(), nonce, got.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(std::memcmp(got.data() + 64 * i, want.data() + 64 * i, 64), 0)
                        << "variant " << k->name << " n=" << n << " block " << i
                        << " nonce=" << nonce;
            }
        }
    }
}

// Independent RFC 8439 reference (written against the spec, not the
// library) — pins the ChaCha20Prg byte stream across the batching
// change: buffered refills, direct bulk fills and ragged reads must all
// produce the exact keystream of sequential single blocks.
void reference_block(const std::uint32_t in[16], std::uint8_t out[64]) {
    auto qr = [](std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d) {
        auto rot = [](std::uint32_t x, int r) { return (x << r) | (x >> (32 - r)); };
        a += b; d ^= a; d = rot(d, 16);
        c += d; b ^= c; b = rot(b, 12);
        a += b; d ^= a; d = rot(d, 8);
        c += d; b ^= c; b = rot(b, 7);
    };
    std::uint32_t x[16];
    std::memcpy(x, in, sizeof(x));
    for (int i = 0; i < 10; ++i) {
        qr(x[0], x[4], x[8], x[12]);
        qr(x[1], x[5], x[9], x[13]);
        qr(x[2], x[6], x[10], x[14]);
        qr(x[3], x[7], x[11], x[15]);
        qr(x[0], x[5], x[10], x[15]);
        qr(x[1], x[6], x[11], x[12]);
        qr(x[2], x[7], x[8], x[13]);
        qr(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) {
        const std::uint32_t v = x[i] + in[i];
        std::memcpy(out + 4 * i, &v, 4);
    }
}

TEST_F(KernelsTest, CrHashBatchMatchesCrHashOnEveryTier) {
    using c2pi::crypto::Block128;
    std::mt19937_64 rng(0xC2B1'000B);
    // A tweak 5 below 2^64 wraps inside the larger batches.
    for (const u64 tweak : {u64{0}, u64{0x1234'5678}, ~u64{0} - 4}) {
        for (const u64 step : {u64{0}, u64{1}}) {
            for (const Block128 offset : {Block128{}, Block128{rng(), rng()}}) {
                for (const std::size_t n : {0UL, 1UL, 7UL, 8UL, 9UL, 15UL, 16UL, 17UL, 1000UL}) {
                    std::vector<Block128> x(n);
                    for (auto& b : x) b = {rng(), rng()};
                    const u64 off[2] = {offset.lo, offset.hi};
                    for (const auto* k : kernels::supported()) {
                        std::vector<Block128> wide(n, Block128{0xAA, 0xAA});
                        std::vector<u64> narrow(n, 0xAA);
                        const auto* in = reinterpret_cast<const std::uint8_t*>(x.data());
                        k->cr_hash_batch(in, n, tweak, step, off, true,
                                         reinterpret_cast<std::uint8_t*>(wide.data()));
                        k->cr_hash_batch(in, n, tweak, step, off, false,
                                         reinterpret_cast<std::uint8_t*>(narrow.data()));
                        for (std::size_t i = 0; i < n; ++i) {
                            const u64 t = tweak + i * step;
                            ASSERT_EQ(wide[i], c2pi::crypto::cr_hash(t, x[i] ^ offset))
                                << k->name << " n=" << n << " i=" << i << " step=" << step;
                            ASSERT_EQ(narrow[i], c2pi::crypto::cr_hash_u64(t, x[i] ^ offset))
                                << k->name << " n=" << n << " i=" << i << " step=" << step;
                        }
                    }
                }
            }
        }
    }
}

TEST_F(KernelsTest, PrgStreamUnchangedByBatching) {
    const c2pi::crypto::Block128 seed{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
    const std::uint64_t nonce = 42;

    // Reference keystream: sequential blocks of the RFC function.
    std::uint8_t key[32];
    seed.to_bytes(key);
    seed.to_bytes(key + 16);
    std::uint32_t state[16] = {0x61707865, 0x3320646E, 0x79622D32, 0x6B206574};
    std::memcpy(&state[4], key, 32);
    state[12] = 0;
    state[13] = static_cast<std::uint32_t>(nonce);
    state[14] = static_cast<std::uint32_t>(nonce >> 32);
    state[15] = 0;
    constexpr std::size_t total = 4096;
    std::vector<std::uint8_t> expect(total);
    for (std::size_t off = 0; off < total; off += 64) {
        reference_block(state, expect.data() + off);
        if (++state[12] == 0) ++state[13];
    }

    // Ragged reads spanning buffered refills and the direct bulk path.
    c2pi::crypto::ChaCha20Prg prg(seed, nonce);
    std::vector<std::uint8_t> got;
    got.reserve(total);
    const std::size_t chunks[] = {1, 3, 8, 60, 5, 64, 129, 7, 256, 1000, 31};
    std::size_t ci = 0;
    while (got.size() < total) {
        std::size_t take = std::min(chunks[ci++ % std::size(chunks)], total - got.size());
        std::vector<std::uint8_t> piece(take);
        prg.fill_bytes(piece);
        got.insert(got.end(), piece.begin(), piece.end());
    }
    EXPECT_EQ(got, expect);
}

TEST_F(KernelsTest, NttRoundTripPerVariant) {
    std::mt19937_64 rng(0xC2B1'0009);
    for (const std::size_t n : {16UL, 1024UL}) {
        const u64 p = test_prime(n);
        const c2pi::he::NttTables tables(p, n);
        for (const auto* k : kernels::supported()) {
            std::vector<u64> a(n);
            for (auto& x : a) x = rng() % p;
            std::vector<u64> b = a;
            tables.forward_with(*k, b);
            tables.inverse_with(*k, b);
            ASSERT_EQ(b, a) << "variant " << k->name << " n=" << n;
        }
    }
}

}  // namespace
