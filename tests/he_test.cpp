// Tests for the mini-BFV stack: modular arithmetic, NTT round-trips and
// negacyclic product property, BFV encrypt/decrypt correctness over the
// full 2^64 plaintext ring, the divisionless decrypt against its first
// formula, homomorphic conv/matvec against plaintext
// reference (through the compiled PlainNtt path the linear layers run),
// the sparse mask fold, and mod-switch.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/rng.hpp"
#include "he/bfv.hpp"
#include "he/encoding.hpp"

namespace c2pi::he {
namespace {

// ---------------------------------------------------------------- modmath ---

TEST(ModMath, MulModMatchesInt128) {
    c2pi::Rng rng(1);
    const u64 p = next_ntt_prime(1ULL << 49, 1 << 13);
    for (int i = 0; i < 200; ++i) {
        const u64 a = rng.next_u64() % p;
        const u64 b = rng.next_u64() % p;
        EXPECT_EQ(mul_mod(a, b, p), static_cast<u64>((static_cast<u128>(a) * b) % p));
    }
}

TEST(ModMath, ShoupMultiplicationAgrees) {
    c2pi::Rng rng(2);
    const u64 p = next_ntt_prime(1ULL << 49, 1 << 13);
    for (int i = 0; i < 200; ++i) {
        const u64 w = rng.next_u64() % p;
        const u64 ws = shoup_precompute(w, p);
        const u64 a = rng.next_u64() % p;
        EXPECT_EQ(mul_mod_shoup(a, w, ws, p), mul_mod(a, w, p));
    }
}

TEST(ModMath, PrimalityKnownValues) {
    EXPECT_TRUE(is_prime(2));
    EXPECT_TRUE(is_prime(1000000007ULL));
    EXPECT_TRUE(is_prime((1ULL << 61) - 1));  // Mersenne prime
    EXPECT_FALSE(is_prime(1));
    EXPECT_FALSE(is_prime(561));         // Carmichael
    EXPECT_FALSE(is_prime(3215031751ULL));  // strong pseudoprime to bases 2,3,5,7
}

TEST(ModMath, NttPrimeHasCorrectResidue) {
    const u64 p = next_ntt_prime(1ULL << 49, 8192);
    EXPECT_TRUE(is_prime(p));
    EXPECT_EQ((p - 1) % 8192, 0U);
}

TEST(ModMath, PrimitiveRootHasOrderTwoN) {
    const u64 two_n = 4096;
    const u64 p = next_ntt_prime(1ULL << 49, two_n);
    const u64 psi = find_primitive_root(p, two_n);
    EXPECT_EQ(pow_mod(psi, two_n / 2, p), p - 1);  // psi^n = -1
    EXPECT_EQ(pow_mod(psi, two_n, p), 1U);
}

TEST(ModMath, InverseIsInverse) {
    const u64 p = next_ntt_prime(1ULL << 49, 4096);
    for (const u64 a : {u64{2}, u64{12345}, u64{p - 1}}) {
        EXPECT_EQ(mul_mod(a, inv_mod(a, p), p), 1U);
    }
}

// -------------------------------------------------------------------- NTT ---

class NttSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttSizeTest, ForwardInverseRoundTrip) {
    const std::size_t n = GetParam();
    const u64 p = next_ntt_prime(1ULL << 49, 2 * n);
    const NttTables tables(p, n);
    c2pi::Rng rng(3);
    std::vector<u64> a(n);
    for (auto& v : a) v = rng.next_u64() % p;
    auto b = a;
    tables.forward(b);
    tables.inverse(b);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttSizeTest, ::testing::Values(16, 64, 256, 1024, 4096));

/// The seed's exact-reduction NTT, reimplemented as a reference: every
/// butterfly fully reduces mod p. The production NttTables switched to
/// Harvey-style lazy reduction (coefficients < 4p, one closing pass), so
/// this property test pins the lazy path to the exact one bit-for-bit.
struct ReferenceNtt {
    u64 p;
    std::size_t n;
    std::vector<u64> psi_rev, ipsi_rev;
    u64 n_inv;

    ReferenceNtt(u64 prime, std::size_t size) : p(prime), n(size) {
        int log_n = 0;
        while ((std::size_t{1} << log_n) < n) ++log_n;
        const u64 psi = find_primitive_root(p, 2 * static_cast<u64>(n));
        const u64 ipsi = inv_mod(psi, p);
        std::vector<u64> psi_powers(n), ipsi_powers(n);
        u64 power = 1, ipower = 1;
        for (std::size_t i = 0; i < n; ++i) {
            psi_powers[i] = power;
            ipsi_powers[i] = ipower;
            power = mul_mod(power, psi, p);
            ipower = mul_mod(ipower, ipsi, p);
        }
        const auto bit_reverse = [log_n](std::size_t x) {
            std::size_t r = 0;
            for (int b = 0; b < log_n; ++b) {
                r = (r << 1) | (x & 1U);
                x >>= 1;
            }
            return r;
        };
        psi_rev.resize(n);
        ipsi_rev.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            psi_rev[i] = psi_powers[bit_reverse(i)];
            ipsi_rev[i] = ipsi_powers[bit_reverse(i)];
        }
        n_inv = inv_mod(static_cast<u64>(n), p);
    }

    void forward(std::vector<u64>& a) const {
        std::size_t t = n;
        for (std::size_t m = 1; m < n; m <<= 1) {
            t >>= 1;
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t j1 = 2 * i * t;
                const u64 s = psi_rev[m + i];
                for (std::size_t j = j1; j < j1 + t; ++j) {
                    const u64 u = a[j];
                    const u64 v = mul_mod(a[j + t], s, p);
                    a[j] = add_mod(u, v, p);
                    a[j + t] = sub_mod(u, v, p);
                }
            }
        }
    }

    void inverse(std::vector<u64>& a) const {
        std::size_t t = 1;
        for (std::size_t m = n; m > 1; m >>= 1) {
            std::size_t j1 = 0;
            const std::size_t h = m >> 1;
            for (std::size_t i = 0; i < h; ++i) {
                const u64 s = ipsi_rev[h + i];
                for (std::size_t j = j1; j < j1 + t; ++j) {
                    const u64 u = a[j];
                    const u64 v = a[j + t];
                    a[j] = add_mod(u, v, p);
                    a[j + t] = mul_mod(sub_mod(u, v, p), s, p);
                }
                j1 += 2 * t;
            }
            t <<= 1;
        }
        for (auto& coeff : a) coeff = mul_mod(coeff, n_inv, p);
    }
};

class NttLazyReductionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttLazyReductionTest, MatchesExactReductionReference) {
    const std::size_t n = GetParam();
    const u64 p = next_ntt_prime(1ULL << 49, 2 * n);
    const NttTables lazy(p, n);
    const ReferenceNtt exact(p, n);
    c2pi::Rng rng(17 + n);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<u64> a(n);
        for (auto& v : a) v = rng.next_u64() % p;
        // Edge coefficients: 0 and p-1 stress the lazy bounds.
        a[0] = 0;
        a[n - 1] = p - 1;

        auto lazy_fwd = a, exact_fwd = a;
        lazy.forward(lazy_fwd);
        exact.forward(exact_fwd);
        ASSERT_EQ(lazy_fwd, exact_fwd) << "forward diverged, trial " << trial;
        for (const u64 v : lazy_fwd) ASSERT_LT(v, p) << "forward output not fully reduced";

        auto lazy_inv = lazy_fwd, exact_inv = exact_fwd;
        lazy.inverse(lazy_inv);
        exact.inverse(exact_inv);
        ASSERT_EQ(lazy_inv, exact_inv) << "inverse diverged, trial " << trial;
        ASSERT_EQ(lazy_inv, a) << "round trip lost the input, trial " << trial;
        for (const u64 v : lazy_inv) ASSERT_LT(v, p) << "inverse output not fully reduced";
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttLazyReductionTest, ::testing::Values(16, 256, 1024));

TEST(Ntt, PointwiseProductIsNegacyclicConvolution) {
    const std::size_t n = 32;
    const u64 p = next_ntt_prime(1ULL << 49, 2 * n);
    const NttTables tables(p, n);
    c2pi::Rng rng(4);
    std::vector<u64> a(n), b(n);
    for (auto& v : a) v = rng.next_u64() % 1000;
    for (auto& v : b) v = rng.next_u64() % 1000;

    // Reference negacyclic product mod p.
    std::vector<u64> want(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t k = i + j;
            const u64 prod = mul_mod(a[i], b[j], p);
            if (k < n)
                want[k] = add_mod(want[k], prod, p);
            else
                want[k - n] = sub_mod(want[k - n], prod, p);
        }

    auto fa = a, fb = b;
    tables.forward(fa);
    tables.forward(fb);
    std::vector<u64> fc(n);
    for (std::size_t i = 0; i < n; ++i) fc[i] = mul_mod(fa[i], fb[i], p);
    tables.inverse(fc);
    EXPECT_EQ(fc, want);
}

// -------------------------------------------------------------------- BFV ---

BfvContext::Params small_params() {
    BfvContext::Params p;
    p.n = 256;
    p.limbs = 4;
    return p;
}

TEST(Bfv, EncryptDecryptRoundTripSmallValues) {
    const BfvContext ctx(small_params());
    crypto::ChaCha20Prg prg(crypto::Block128{1, 2});
    const SecretKey sk = ctx.keygen(prg);
    std::vector<Ring> plain(ctx.n());
    for (std::size_t i = 0; i < plain.size(); ++i) plain[i] = i * 3;
    const Ciphertext ct = ctx.encrypt(plain, sk, prg);
    EXPECT_EQ(ctx.decrypt(ct, sk), plain);
}

/// decrypt as it was first written, kept as the reference for the
/// divisionless one: c1 * s by 128-bit mul_mod, qhat_i^{-1} recomputed
/// per call, floor(y 2^64 / q_i) and its remainder by 128-bit division
/// and the fraction summed in long double.
std::vector<Ring> reference_decrypt(const BfvContext& ctx, const Ciphertext& ct,
                                    const SecretKey& sk) {
    const int limbs = ct.active_limbs();
    std::vector<std::vector<u64>> cs(static_cast<std::size_t>(limbs));
    for (int i = 0; i < limbs; ++i) {
        const auto u = static_cast<std::size_t>(i);
        const u64 p = ctx.prime(i);
        const NttTables ntt(p, ctx.n());
        std::vector<u64> c1 = ct.c1.limbs[u];
        ntt.forward(c1);
        for (std::size_t j = 0; j < ctx.n(); ++j) c1[j] = mul_mod(c1[j], sk.s_ntt.limbs[u][j], p);
        ntt.inverse(c1);
        for (std::size_t j = 0; j < ctx.n(); ++j) c1[j] = add_mod(c1[j], ct.c0.limbs[u][j], p);
        cs[u] = std::move(c1);
    }
    std::vector<u64> qhat_inv(static_cast<std::size_t>(limbs));
    for (int i = 0; i < limbs; ++i) {
        const u64 p = ctx.prime(i);
        u64 qhat = 1;
        for (int k = 0; k < limbs; ++k)
            if (k != i) qhat = mul_mod(qhat, ctx.prime(k) % p, p);
        qhat_inv[static_cast<std::size_t>(i)] = inv_mod(qhat, p);
    }
    std::vector<Ring> out(ctx.n());
    for (std::size_t j = 0; j < ctx.n(); ++j) {
        u64 integer_part = 0;
        long double fraction = 0.0L;
        for (int i = 0; i < limbs; ++i) {
            const u64 p = ctx.prime(i);
            const u64 y = mul_mod(cs[static_cast<std::size_t>(i)][j],
                                  qhat_inv[static_cast<std::size_t>(i)], p);
            const u128 scaled = static_cast<u128>(y) << 64;
            integer_part += static_cast<u64>(scaled / p);
            fraction += static_cast<long double>(static_cast<u64>(scaled % p)) /
                        static_cast<long double>(p);
        }
        out[j] = integer_part + static_cast<u64>(llroundl(fraction));
    }
    return out;
}

TEST(Bfv, DecryptMatchesReferenceFormula) {
    for (const int limbs : {2, 4}) {
        const BfvContext ctx({.n = 1024, .limbs = limbs});
        crypto::ChaCha20Prg prg(crypto::Block128{9, static_cast<std::uint64_t>(limbs)});
        const SecretKey sk = ctx.keygen(prg);
        c2pi::Rng rng(10);
        std::vector<Ring> plain(ctx.n());
        for (auto& v : plain) v = rng.next_u64();
        const Ring edges[] = {0, 1, ~Ring{0}, Ring{1} << 63, (Ring{1} << 63) - 1};
        for (std::size_t k = 0; k < std::size(edges); ++k) plain[k] = edges[k];

        std::vector<Ciphertext> cts{ctx.encrypt(plain, sk, prg)};
        if (limbs == 4) {  // the response path: switched down to two limbs
            cts.push_back(ctx.encrypt(plain, sk, prg));
            ctx.mod_switch_to_two_limbs(cts.back());
        }
        // A ciphertext of uniform residues: its fractions land anywhere in [0, 1).
        Ciphertext uniform = cts.front();
        for (int i = 0; i < limbs; ++i)
            for (auto* poly : {&uniform.c0, &uniform.c1})
                for (auto& c : poly->limbs[static_cast<std::size_t>(i)]) c = rng.next_u64() % ctx.prime(i);
        cts.push_back(uniform);

        for (const Ciphertext& ct : cts) {
            EXPECT_EQ(ctx.decrypt(ct, sk), reference_decrypt(ctx, ct, sk))
                << limbs << " fresh limbs, " << ct.active_limbs() << " active";
        }
        // Only four fresh limbs leave Delta m exact over the full 2^64 ring.
        if (limbs == 4) {
            EXPECT_EQ(ctx.decrypt(cts[0], sk), plain);
            EXPECT_EQ(ctx.decrypt(cts[1], sk), plain);
        }
    }
}

TEST(Bfv, EncryptDecryptFullRangeRingValues) {
    const BfvContext ctx(small_params());
    crypto::ChaCha20Prg prg(crypto::Block128{3, 4});
    const SecretKey sk = ctx.keygen(prg);
    c2pi::Rng rng(5);
    std::vector<Ring> plain(ctx.n());
    for (auto& v : plain) v = rng.next_u64();  // uniform shares: full range
    const Ciphertext ct = ctx.encrypt(plain, sk, prg);
    EXPECT_EQ(ctx.decrypt(ct, sk), plain);
}

TEST(Bfv, HomomorphicPlainMultiplyMatchesNegacyclicRingProduct) {
    const BfvContext ctx(small_params());
    crypto::ChaCha20Prg prg(crypto::Block128{5, 6});
    const SecretKey sk = ctx.keygen(prg);
    c2pi::Rng rng(6);
    std::vector<Ring> plain(ctx.n()), weight(ctx.n(), 0);
    for (auto& v : plain) v = rng.next_u64();
    for (std::size_t i = 0; i < 20; ++i)
        weight[i] = static_cast<Ring>(static_cast<std::int64_t>(rng.next_u64() % 4001) - 2000);

    Ciphertext ct = ctx.encrypt(plain, sk, prg);
    ctx.to_ntt(ct);
    Ciphertext acc;
    ctx.multiply_plain(ct, ctx.to_plain_ntt(weight), acc);
    ctx.from_ntt(acc);
    const auto got = ctx.decrypt(acc, sk);

    // Negacyclic product over Z_{2^64}.
    std::vector<Ring> want(ctx.n(), 0);
    for (std::size_t i = 0; i < ctx.n(); ++i) {
        if (weight[i] == 0 && i >= 20) continue;
        for (std::size_t j = 0; j < ctx.n(); ++j) {
            const Ring prod = plain[j] * weight[i];
            const std::size_t k = i + j;
            if (k < ctx.n())
                want[k] += prod;
            else
                want[k - ctx.n()] -= prod;
        }
    }
    EXPECT_EQ(got, want);
}

TEST(Bfv, AddPlainFoldsIntoMessage) {
    const BfvContext ctx(small_params());
    crypto::ChaCha20Prg prg(crypto::Block128{7, 8});
    const SecretKey sk = ctx.keygen(prg);
    std::vector<Ring> plain(ctx.n(), 10), extra(ctx.n());
    c2pi::Rng rng(7);
    for (auto& v : extra) v = rng.next_u64();
    // Signed-lift edges: INT64_MIN is a legal ring element whose magnitude
    // must be computed without signed overflow; INT64_MAX and -1 sit on
    // either side of the sign split.
    const Ring edges[] = {0x8000000000000000ULL, 0x7FFFFFFFFFFFFFFFULL, ~Ring{0}};
    for (std::size_t i = 0; i < std::size(edges); ++i) {
        extra[i] = edges[i];
        extra[ctx.n() - 1 - i] = edges[i];
    }
    std::vector<std::int64_t> positions(ctx.n());
    std::iota(positions.begin(), positions.end(), 0);
    Ciphertext ct = ctx.encrypt(plain, sk, prg);
    ctx.add_plain_at(ct, positions, extra);
    const auto got = ctx.decrypt(ct, sk);
    for (std::size_t i = 0; i < ctx.n(); ++i) EXPECT_EQ(got[i], plain[i] + extra[i]);
}

TEST(Bfv, ModSwitchPreservesMessage) {
    const BfvContext ctx(small_params());
    crypto::ChaCha20Prg prg(crypto::Block128{9, 10});
    const SecretKey sk = ctx.keygen(prg);
    c2pi::Rng rng(8);
    std::vector<Ring> plain(ctx.n());
    for (auto& v : plain) v = rng.next_u64();
    Ciphertext ct = ctx.encrypt(plain, sk, prg);
    ctx.mod_switch_to_two_limbs(ct);
    EXPECT_EQ(ct.active_limbs(), 2);
    EXPECT_EQ(ctx.decrypt(ct, sk), plain);
}

TEST(Bfv, ModSwitchAfterMultiplyPreservesMessage) {
    const BfvContext ctx(small_params());
    crypto::ChaCha20Prg prg(crypto::Block128{11, 12});
    const SecretKey sk = ctx.keygen(prg);
    c2pi::Rng rng(9);
    std::vector<Ring> plain(ctx.n()), weight(ctx.n(), 0);
    for (auto& v : plain) v = rng.next_u64();
    for (std::size_t i = 0; i < 16; ++i) weight[i] = rng.next_u64() % 1000;

    Ciphertext ct = ctx.encrypt(plain, sk, prg);
    ctx.to_ntt(ct);
    Ciphertext acc;
    ctx.multiply_plain(ct, ctx.to_plain_ntt(weight), acc);
    ctx.from_ntt(acc);
    const auto before = ctx.decrypt(acc, sk);
    ctx.mod_switch_to_two_limbs(acc);
    EXPECT_EQ(ctx.decrypt(acc, sk), before);
}

// ---------------------------------------------------------------- encoding ---

/// Plaintext conv reference over the ring (exact arithmetic mod 2^64).
std::vector<Ring> ring_conv_reference(const ConvGeometry& g, std::span<const Ring> x,
                                      std::span<const Ring> w) {
    std::vector<Ring> y(static_cast<std::size_t>(g.out_channels * g.out_h() * g.out_w()), 0);
    for (std::int64_t o = 0; o < g.out_channels; ++o)
        for (std::int64_t oy = 0; oy < g.out_h(); ++oy)
            for (std::int64_t ox = 0; ox < g.out_w(); ++ox) {
                Ring acc = 0;
                for (std::int64_t c = 0; c < g.in_channels; ++c)
                    for (std::int64_t ky = 0; ky < g.kernel; ++ky)
                        for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
                            const std::int64_t iy = oy * g.stride - g.pad + ky;
                            const std::int64_t ix = ox * g.stride - g.pad + kx;
                            if (iy < 0 || iy >= g.height || ix < 0 || ix >= g.width) continue;
                            acc += x[static_cast<std::size_t>((c * g.height + iy) * g.width + ix)] *
                                   w[static_cast<std::size_t>(((o * g.in_channels + c) * g.kernel + ky) *
                                                              g.kernel + kx)];
                        }
                y[static_cast<std::size_t>((o * g.out_h() + oy) * g.out_w() + ox)] = acc;
            }
    return y;
}

struct ConvEncCase {
    std::int64_t c, hw, o, kernel, stride, pad;
};

class ConvEncodingTest : public ::testing::TestWithParam<ConvEncCase> {};

TEST_P(ConvEncodingTest, HomomorphicConvMatchesRingReference) {
    const auto p = GetParam();
    BfvContext::Params params;
    params.n = 1024;
    params.limbs = 4;
    const BfvContext ctx(params);
    const ConvGeometry geo{.in_channels = p.c,
                           .height = p.hw,
                           .width = p.hw,
                           .out_channels = p.o,
                           .kernel = p.kernel,
                           .stride = p.stride,
                           .pad = p.pad};
    const ConvEncoder enc(ctx, geo);

    c2pi::Rng rng(11);
    std::vector<Ring> x(static_cast<std::size_t>(p.c * p.hw * p.hw));
    for (auto& v : x) v = rng.next_u64();  // full-range shares
    std::vector<Ring> w(static_cast<std::size_t>(p.o * p.c * p.kernel * p.kernel));
    for (auto& v : w)
        v = static_cast<Ring>(static_cast<std::int64_t>(rng.next_u64() % 2001) - 1000);

    crypto::ChaCha20Prg prg(crypto::Block128{15, 16});
    const SecretKey sk = ctx.keygen(prg);

    // One accumulator per output channel, summed over input groups.
    const LinearLayout& layout = enc.layout();
    ASSERT_EQ(layout.responses(), p.o);
    const auto polys = layout.pack_inputs(x, ctx.n());
    std::vector<Ciphertext> input_cts;
    for (std::int64_t g = 0; g < layout.inputs; ++g) {
        Ciphertext ct = ctx.encrypt(
            std::span(polys).subspan(static_cast<std::size_t>(g) * ctx.n(), ctx.n()), sk, prg);
        ctx.to_ntt(ct);
        input_cts.push_back(std::move(ct));
    }
    const auto want = ring_conv_reference(geo, x, w);
    ASSERT_EQ(layout.output_coeff.size(), want.size());
    for (std::int64_t o = 0; o < p.o; ++o) {
        Ciphertext acc;
        ctx.multiply_plain(input_cts[0], ctx.to_plain_ntt(enc.encode_weight(w, 0, o)), acc);
        for (std::int64_t g = 1; g < layout.inputs; ++g) {
            ctx.multiply_plain_accumulate(input_cts[static_cast<std::size_t>(g)],
                                          ctx.to_plain_ntt(enc.encode_weight(w, g, o)), acc);
        }
        ctx.from_ntt(acc);
        ctx.mod_switch_to_two_limbs(acc);
        const auto poly = ctx.decrypt(acc, sk);
        const auto [begin, end] = layout.response_range(o);
        ASSERT_EQ(end - begin, static_cast<std::size_t>(geo.out_h() * geo.out_w()));
        for (std::size_t j = begin; j < end; ++j) {
            EXPECT_EQ(poly[static_cast<std::size_t>(layout.output_coeff[j])], want[j])
                << "o=" << o << " j=" << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvEncodingTest,
                         ::testing::Values(ConvEncCase{3, 8, 4, 3, 1, 1},    // one group
                                           ConvEncCase{8, 8, 2, 3, 1, 1},    // multiple groups
                                           ConvEncCase{1, 8, 3, 3, 1, 0},    // no padding
                                           ConvEncCase{2, 9, 2, 3, 2, 1},    // stride 2
                                           ConvEncCase{4, 6, 5, 5, 1, 2},    // 5x5 kernel
                                           ConvEncCase{2, 30, 2, 3, 1, 1})); // plane ~ n boundary

TEST(MatVecEncoding, HomomorphicMatVecMatchesRingReference) {
    BfvContext::Params params;
    params.n = 256;
    const BfvContext ctx(params);
    const std::int64_t in = 48, out = 20;
    const MatVecEncoder enc(ctx, in, out);

    c2pi::Rng rng(12);
    std::vector<Ring> x(static_cast<std::size_t>(in));
    for (auto& v : x) v = rng.next_u64();
    std::vector<Ring> w(static_cast<std::size_t>(in * out));
    for (auto& v : w)
        v = static_cast<Ring>(static_cast<std::int64_t>(rng.next_u64() % 2001) - 1000);

    crypto::ChaCha20Prg prg(crypto::Block128{17, 18});
    const SecretKey sk = ctx.keygen(prg);
    const LinearLayout& layout = enc.layout();
    ASSERT_EQ(layout.inputs, 1);
    Ciphertext ct = ctx.encrypt(layout.pack_inputs(x, ctx.n()), sk, prg);
    ctx.to_ntt(ct);

    // 256 / 48 = 5 rows per block: 20 rows are 4 full blocks.
    ASSERT_EQ(layout.responses(), 4);
    std::vector<Ring> got;
    for (std::int64_t b = 0; b < layout.responses(); ++b) {
        Ciphertext acc;
        ctx.multiply_plain(ct, ctx.to_plain_ntt(enc.encode_weight_block(w, b)), acc);
        ctx.from_ntt(acc);
        const auto poly = ctx.decrypt(acc, sk);
        const auto [begin, end] = layout.response_range(b);
        for (std::size_t j = begin; j < end; ++j)
            got.push_back(poly[static_cast<std::size_t>(layout.output_coeff[j])]);
    }
    ASSERT_EQ(got.size(), static_cast<std::size_t>(out));
    for (std::int64_t o = 0; o < out; ++o) {
        Ring want = 0;
        for (std::int64_t j = 0; j < in; ++j)
            want += x[static_cast<std::size_t>(j)] * w[static_cast<std::size_t>(o * in + j)];
        EXPECT_EQ(got[static_cast<std::size_t>(o)], want) << o;
    }
}

TEST(LinearLayout, PackRejectsASmallerRingDegree) {
    BfvContext::Params params;
    params.n = 1024;
    const BfvContext ctx(params);
    const MatVecEncoder enc(ctx, 600, 2);
    const std::vector<Ring> x(600, 1);
    EXPECT_EQ(enc.layout().pack_inputs(x, ctx.n()).size(), ctx.n());
    EXPECT_THROW((void)enc.layout().pack_inputs(x, 512), Error);
}

TEST(ConvEncoding, GroupingRespectsRingCapacity) {
    BfvContext::Params params;
    params.n = 1024;
    const BfvContext ctx(params);
    // 10x10 padded to 12x12 = 144; 1024/144 = 7 channels per group.
    const ConvGeometry geo{.in_channels = 16, .height = 10, .width = 10, .out_channels = 1,
                           .kernel = 3, .stride = 1, .pad = 1};
    const ConvEncoder enc(ctx, geo);
    EXPECT_EQ(enc.channels_per_group(), 7);
    EXPECT_EQ(enc.layout().inputs, 3);
    EXPECT_LE(enc.channels_per_group() * geo.padded_h() * geo.padded_w(),
              static_cast<std::int64_t>(ctx.n()));
}

}  // namespace
}  // namespace c2pi::he
