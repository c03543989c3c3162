// AVX2 kernel variant: 4 x u64 lanes for the ring arithmetic, 8 x u32
// lanes (8 blocks) for ChaCha20. Every operation reproduces the scalar
// lazy-reduction sequence exactly — AVX2 has no 64x64 high multiply, so
// mulhi/mullo are emulated from 32-bit partial products, which is still
// a win because the butterfly's compare/select logic and the second
// operand's low multiply vectorize alongside. The NTT's final stages
// (t = 2, t = 1), where lanes need distinct twiddles, are handled with
// unpack/permute deinterleaves over contiguous twiddle loads instead of
// falling back to scalar. The batched cr_hash runs 4 SipHash states per
// register, with byte shuffles for the 16- and 32-bit rotates.
//
// This TU (alone) is compiled with -mavx2; dispatch guarantees the
// entry points only run after a cpuid check.

#include "he/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "he/modmath.hpp"

namespace c2pi::he::kernels {

namespace {

using V = __m256i;

inline V load(const u64* p) { return _mm256_loadu_si256(reinterpret_cast<const V*>(p)); }
inline void store(u64* p, V x) { _mm256_storeu_si256(reinterpret_cast<V*>(p), x); }

const V kSign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
const V kLo32 = _mm256_set1_epi64x(0xFFFFFFFFLL);

/// Unsigned 64-bit b > a, per lane (all-ones mask where true).
inline V gt_u64(V b, V a) {
    return _mm256_cmpgt_epi64(_mm256_xor_si256(b, kSign), _mm256_xor_si256(a, kSign));
}

/// a >= bound ? a - bound : a (unsigned lanes).
inline V csub_u64(V a, V bound) {
    const V keep = gt_u64(bound, a);  // bound > a -> keep a
    return _mm256_blendv_epi8(_mm256_sub_epi64(a, bound), a, keep);
}

/// (a + b) mod p for a, b < p < 2^63.
inline V add_mod_v(V a, V b, V p) { return csub_u64(_mm256_add_epi64(a, b), p); }

/// (a - b) mod p for a, b < p.
inline V sub_mod_v(V a, V b, V p) {
    const V diff = _mm256_sub_epi64(a, b);
    return _mm256_blendv_epi8(diff, _mm256_add_epi64(diff, p), gt_u64(b, a));
}

/// Low 64 bits of a * b.
inline V mullo_u64(V a, V b) {
    const V cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                                     _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return _mm256_add_epi64(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
}

/// High 64 bits of a * b (schoolbook over 32-bit halves).
inline V mulhi_u64(V a, V b) {
    const V a_hi = _mm256_srli_epi64(a, 32);
    const V b_hi = _mm256_srli_epi64(b, 32);
    const V ll = _mm256_mul_epu32(a, b);
    const V lh = _mm256_mul_epu32(a, b_hi);
    const V hl = _mm256_mul_epu32(a_hi, b);
    const V hh = _mm256_mul_epu32(a_hi, b_hi);
    const V cross = _mm256_add_epi64(_mm256_and_si256(lh, kLo32), _mm256_and_si256(hl, kLo32));
    const V carry =
        _mm256_srli_epi64(_mm256_add_epi64(_mm256_srli_epi64(ll, 32), cross), 32);
    return _mm256_add_epi64(_mm256_add_epi64(hh, carry),
                            _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                                             _mm256_srli_epi64(hl, 32)));
}

/// Lazy Shoup product: a * w - floor(a * w_shoup / 2^64) * p, in [0, 2p).
inline V mul_shoup_lazy_v(V a, V w, V w_shoup, V p) {
    const V q = mulhi_u64(a, w_shoup);
    return _mm256_sub_epi64(mullo_u64(a, w), mullo_u64(q, p));
}

/// Exact Shoup product in [0, p).
inline V mul_shoup_v(V a, V w, V w_shoup, V p) {
    return csub_u64(mul_shoup_lazy_v(a, w, w_shoup, p), p);
}

/// a mod p for arbitrary a (Shoup reduction by 1).
inline V reduce_mod_v(V a, V one_shoup, V p) {
    const V q = mulhi_u64(a, one_shoup);
    return csub_u64(_mm256_sub_epi64(a, mullo_u64(q, p)), p);
}

// ------------------------------------------------------------------- NTT ---

/// Forward Harvey butterfly on 4 lanes: (u, x) -> (u' + v, u' + 2p - v)
/// with u' = csub(u, 2p), v = lazy(x * s).
inline void fwd_butterfly(V& u, V& x, V s, V s_shoup, V p, V two_p) {
    u = csub_u64(u, two_p);
    const V v = mul_shoup_lazy_v(x, s, s_shoup, p);
    x = _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v));
    u = _mm256_add_epi64(u, v);
}

void ntt_forward_avx2(u64* a, std::size_t n, const u64* psi_rev,
                      const u64* psi_rev_shoup, u64 p) {
    if (n < 16) {  // specialized tail stages assume >= 4 blocks per stage
        scalar_kernels()->ntt_forward(a, n, psi_rev, psi_rev_shoup, p);
        return;
    }
    const V vp = _mm256_set1_epi64x(static_cast<long long>(p));
    const V v2p = _mm256_set1_epi64x(static_cast<long long>(2 * p));

    std::size_t m = 1;
    std::size_t t = n >> 1;
    for (; t >= 4; m <<= 1, t >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const V s = _mm256_set1_epi64x(static_cast<long long>(psi_rev[m + i]));
            const V ss = _mm256_set1_epi64x(static_cast<long long>(psi_rev_shoup[m + i]));
            for (std::size_t j = j1; j < j1 + t; j += 4) {
                V u = load(a + j);
                V x = load(a + j + t);
                fwd_butterfly(u, x, s, ss, vp, v2p);
                store(a + j, u);
                store(a + j + t, x);
            }
        }
    }

    // t == 2 (m = n/4): blocks [u0 u1 v0 v1]; two blocks per pass, the
    // 128-bit halves of a register are one block's u-part / v-part.
    for (std::size_t i = 0; i < m; i += 2) {
        const std::size_t j = 4 * i;
        const V x0 = load(a + j);
        const V x1 = load(a + j + 4);
        V u = _mm256_permute2x128_si256(x0, x1, 0x20);
        V x = _mm256_permute2x128_si256(x0, x1, 0x31);
        const V tw = load(psi_rev + m + i);
        const V tws = load(psi_rev_shoup + m + i);
        const V s = _mm256_permute4x64_epi64(tw, 0x50);   // [s_i s_i s_i+1 s_i+1]
        const V ss = _mm256_permute4x64_epi64(tws, 0x50);
        fwd_butterfly(u, x, s, ss, vp, v2p);
        store(a + j, _mm256_permute2x128_si256(u, x, 0x20));
        store(a + j + 4, _mm256_permute2x128_si256(u, x, 0x31));
    }
    m <<= 1;

    // t == 1 (m = n/2): adjacent pairs; unpack gives pair order
    // [0 2 1 3], matched by the same permute of the contiguous twiddles.
    for (std::size_t i = 0; i < m; i += 4) {
        const std::size_t j = 2 * i;
        const V x0 = load(a + j);
        const V x1 = load(a + j + 4);
        V u = _mm256_unpacklo_epi64(x0, x1);
        V x = _mm256_unpackhi_epi64(x0, x1);
        const V tw = load(psi_rev + m + i);
        const V tws = load(psi_rev_shoup + m + i);
        const V s = _mm256_permute4x64_epi64(tw, _MM_SHUFFLE(3, 1, 2, 0));
        const V ss = _mm256_permute4x64_epi64(tws, _MM_SHUFFLE(3, 1, 2, 0));
        fwd_butterfly(u, x, s, ss, vp, v2p);
        store(a + j, _mm256_unpacklo_epi64(u, x));
        store(a + j + 4, _mm256_unpackhi_epi64(u, x));
    }

    for (std::size_t j = 0; j < n; j += 4)
        store(a + j, csub_u64(csub_u64(load(a + j), v2p), vp));
}

/// Inverse Gentleman-Sande butterfly: (u, v) -> (csub(u+v, 2p),
/// lazy((u + 2p - v) * s)).
inline void inv_butterfly(V& u, V& v, V s, V s_shoup, V p, V two_p) {
    const V diff = _mm256_add_epi64(u, _mm256_sub_epi64(two_p, v));
    u = csub_u64(_mm256_add_epi64(u, v), two_p);
    v = mul_shoup_lazy_v(diff, s, s_shoup, p);
}

void ntt_inverse_avx2(u64* a, std::size_t n, const u64* ipsi_rev,
                      const u64* ipsi_rev_shoup, u64 n_inv, u64 n_inv_shoup, u64 p) {
    if (n < 16) {
        scalar_kernels()->ntt_inverse(a, n, ipsi_rev, ipsi_rev_shoup, n_inv, n_inv_shoup, p);
        return;
    }
    const V vp = _mm256_set1_epi64x(static_cast<long long>(p));
    const V v2p = _mm256_set1_epi64x(static_cast<long long>(2 * p));

    // t == 1 (h = n/2): adjacent pairs, same deinterleave as forward.
    {
        const std::size_t h = n >> 1;
        for (std::size_t i = 0; i < h; i += 4) {
            const std::size_t j = 2 * i;
            const V x0 = load(a + j);
            const V x1 = load(a + j + 4);
            V u = _mm256_unpacklo_epi64(x0, x1);
            V v = _mm256_unpackhi_epi64(x0, x1);
            const V tw = load(ipsi_rev + h + i);
            const V tws = load(ipsi_rev_shoup + h + i);
            const V s = _mm256_permute4x64_epi64(tw, _MM_SHUFFLE(3, 1, 2, 0));
            const V ss = _mm256_permute4x64_epi64(tws, _MM_SHUFFLE(3, 1, 2, 0));
            inv_butterfly(u, v, s, ss, vp, v2p);
            store(a + j, _mm256_unpacklo_epi64(u, v));
            store(a + j + 4, _mm256_unpackhi_epi64(u, v));
        }
    }

    // t == 2 (h = n/4): blocks [u0 u1 v0 v1].
    {
        const std::size_t h = n >> 2;
        for (std::size_t i = 0; i < h; i += 2) {
            const std::size_t j = 4 * i;
            const V x0 = load(a + j);
            const V x1 = load(a + j + 4);
            V u = _mm256_permute2x128_si256(x0, x1, 0x20);
            V v = _mm256_permute2x128_si256(x0, x1, 0x31);
            const V tw = load(ipsi_rev + h + i);
            const V tws = load(ipsi_rev_shoup + h + i);
            const V s = _mm256_permute4x64_epi64(tw, 0x50);
            const V ss = _mm256_permute4x64_epi64(tws, 0x50);
            inv_butterfly(u, v, s, ss, vp, v2p);
            store(a + j, _mm256_permute2x128_si256(u, v, 0x20));
            store(a + j + 4, _mm256_permute2x128_si256(u, v, 0x31));
        }
    }

    // t >= 4: broadcast twiddle per run.
    for (std::size_t t = 4, h = n >> 3; h >= 1; t <<= 1, h >>= 1) {
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
            const V s = _mm256_set1_epi64x(static_cast<long long>(ipsi_rev[h + i]));
            const V ss = _mm256_set1_epi64x(static_cast<long long>(ipsi_rev_shoup[h + i]));
            for (std::size_t j = j1; j < j1 + t; j += 4) {
                V u = load(a + j);
                V v = load(a + j + t);
                inv_butterfly(u, v, s, ss, vp, v2p);
                store(a + j, u);
                store(a + j + t, v);
            }
            j1 += 2 * t;
        }
    }

    const V s = _mm256_set1_epi64x(static_cast<long long>(n_inv));
    const V ss = _mm256_set1_epi64x(static_cast<long long>(n_inv_shoup));
    for (std::size_t j = 0; j < n; j += 4)
        store(a + j, csub_u64(mul_shoup_lazy_v(load(a + j), s, ss, vp), vp));
}

// ----------------------------------------------------- element-wise loops ---

void mul_shoup_avx2(u64* dst, const u64* a, const u64* w, const u64* w_shoup,
                    std::size_t n, u64 p) {
    const V vp = _mm256_set1_epi64x(static_cast<long long>(p));
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4)
        store(dst + j, mul_shoup_v(load(a + j), load(w + j), load(w_shoup + j), vp));
    for (; j < n; ++j) dst[j] = mul_mod_shoup(a[j], w[j], w_shoup[j], p);
}

void mul_shoup_accumulate_avx2(u64* acc, const u64* a, const u64* w,
                               const u64* w_shoup, std::size_t n, u64 p) {
    const V vp = _mm256_set1_epi64x(static_cast<long long>(p));
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const V prod = mul_shoup_v(load(a + j), load(w + j), load(w_shoup + j), vp);
        store(acc + j, add_mod_v(load(acc + j), prod, vp));
    }
    for (; j < n; ++j)
        acc[j] = add_mod(acc[j], mul_mod_shoup(a[j], w[j], w_shoup[j], p), p);
}

void mod_switch_4to2_avx2(u64* l0, u64* l1, const u64* l2, const u64* l3,
                          std::size_t n, const ModSwitchConsts& k) {
    const V vq3 = _mm256_set1_epi64x(static_cast<long long>(k.q3));
    const V vq4 = _mm256_set1_epi64x(static_cast<long long>(k.q4));
    const V vone_q4 = _mm256_set1_epi64x(static_cast<long long>(k.one_shoup_q4));
    const V vq3i = _mm256_set1_epi64x(static_cast<long long>(k.q3_inv));
    const V vq3is = _mm256_set1_epi64x(static_cast<long long>(k.q3_inv_shoup));
    V vpk[2], vonek[2], vr64[2], vr64s[2], vdrop[2], vdrops[2];
    for (int i = 0; i < 2; ++i) {
        vpk[i] = _mm256_set1_epi64x(static_cast<long long>(k.p[i]));
        vonek[i] = _mm256_set1_epi64x(static_cast<long long>(k.one_shoup[i]));
        vr64[i] = _mm256_set1_epi64x(static_cast<long long>(k.r64[i]));
        vr64s[i] = _mm256_set1_epi64x(static_cast<long long>(k.r64_shoup[i]));
        vdrop[i] = _mm256_set1_epi64x(static_cast<long long>(k.drop_inv[i]));
        vdrops[i] = _mm256_set1_epi64x(static_cast<long long>(k.drop_inv_shoup[i]));
    }
    u64* dst[2] = {l0, l1};
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const V c3 = load(l2 + j);
        const V c4 = load(l3 + j);
        const V d = sub_mod_v(reduce_mod_v(c4, vone_q4, vq4),
                              reduce_mod_v(c3, vone_q4, vq4), vq4);
        const V w = mul_shoup_v(d, vq3i, vq3is, vq4);
        // 128-bit v = c3 + q3 * w, split into (hi, lo) with carry.
        const V prod_lo = mullo_u64(vq3, w);
        const V lo = _mm256_add_epi64(prod_lo, c3);
        const V carry = gt_u64(prod_lo, lo);  // all-ones where overflowed
        const V hi = _mm256_sub_epi64(mulhi_u64(vq3, w), carry);
        for (int i = 0; i < 2; ++i) {
            const V v_mod = add_mod_v(mul_shoup_v(hi, vr64[i], vr64s[i], vpk[i]),
                                      reduce_mod_v(lo, vonek[i], vpk[i]), vpk[i]);
            const V cur = load(dst[i] + j);
            store(dst[i] + j,
                  mul_shoup_v(sub_mod_v(cur, v_mod, vpk[i]), vdrop[i], vdrops[i], vpk[i]));
        }
    }
    if (j < n) {
        ModSwitchConsts tail = k;
        scalar_kernels()->mod_switch_4to2(l0 + j, l1 + j, l2 + j, l3 + j, n - j, tail);
    }
}

// -------------------------------------------------------------- ChaCha20 ---

using W = __m256i;  // 8 x u32 lanes = 8 blocks, one state word per register

inline W rotl_v(W x, int r) {
    return _mm256_or_si256(_mm256_slli_epi32(x, r), _mm256_srli_epi32(x, 32 - r));
}

inline void quarter_round_v(W& a, W& b, W& c, W& d, W rot16, W rot8) {
    a = _mm256_add_epi32(a, b);
    d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
    c = _mm256_add_epi32(c, d);
    b = rotl_v(_mm256_xor_si256(b, c), 12);
    a = _mm256_add_epi32(a, b);
    d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
    c = _mm256_add_epi32(c, d);
    b = rotl_v(_mm256_xor_si256(b, c), 7);
}

/// 8x8 u32 transpose: rows r[0..7] in, columns out (column b lands in r[b]).
inline void transpose_8x8_u32(W r[8]) {
    const W t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    const W t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    const W t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    const W t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    const W t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    const W t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    const W t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    const W t7 = _mm256_unpackhi_epi32(r[6], r[7]);
    const W u0 = _mm256_unpacklo_epi64(t0, t2);
    const W u1 = _mm256_unpackhi_epi64(t0, t2);
    const W u2 = _mm256_unpacklo_epi64(t1, t3);
    const W u3 = _mm256_unpackhi_epi64(t1, t3);
    const W u4 = _mm256_unpacklo_epi64(t4, t6);
    const W u5 = _mm256_unpackhi_epi64(t4, t6);
    const W u6 = _mm256_unpacklo_epi64(t5, t7);
    const W u7 = _mm256_unpackhi_epi64(t5, t7);
    r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
    r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
    r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
    r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
    r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
    r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
    r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
    r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// The block function on 8 lanes (init[w] = state word w of each lane's
/// block), feed-forward included; lane b's 64 bytes land at out + 64 b.
/// Forced inline so chacha20_8blocks stays one function: an out-of-line
/// call measured ~20% slower bulk ChaCha20Prg output on an AVX-512 Xeon.
[[gnu::always_inline]] inline void chacha20_8lanes(const W init[16], std::uint8_t* out) {
    const W rot16 = _mm256_set_epi8(13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
                                    13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2);
    const W rot8 = _mm256_set_epi8(14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
                                   14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3);
    W x[16];
    for (int i = 0; i < 16; ++i) x[i] = init[i];
    for (int round = 0; round < 10; ++round) {
        quarter_round_v(x[0], x[4], x[8], x[12], rot16, rot8);
        quarter_round_v(x[1], x[5], x[9], x[13], rot16, rot8);
        quarter_round_v(x[2], x[6], x[10], x[14], rot16, rot8);
        quarter_round_v(x[3], x[7], x[11], x[15], rot16, rot8);
        quarter_round_v(x[0], x[5], x[10], x[15], rot16, rot8);
        quarter_round_v(x[1], x[6], x[11], x[12], rot16, rot8);
        quarter_round_v(x[2], x[7], x[8], x[13], rot16, rot8);
        quarter_round_v(x[3], x[4], x[9], x[14], rot16, rot8);
    }
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], init[i]);

    // Transpose words 0..7 and 8..15 separately; block b is then row b of
    // the first transpose (32 bytes) followed by row b of the second.
    transpose_8x8_u32(x);
    transpose_8x8_u32(x + 8);
    for (int b = 0; b < 8; ++b) {
        _mm256_storeu_si256(reinterpret_cast<W*>(out + 64 * b), x[b]);
        _mm256_storeu_si256(reinterpret_cast<W*>(out + 64 * b + 32), x[8 + b]);
    }
}

/// 8 consecutive keystream blocks starting at `counter`.
void chacha20_8blocks(const std::uint32_t state[16], std::uint64_t counter,
                      std::uint8_t* out) {
    W init[16];
    for (int i = 0; i < 16; ++i) init[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
    alignas(32) std::uint32_t ctr_lo[8], ctr_hi[8];
    for (int b = 0; b < 8; ++b) {
        const std::uint64_t c = counter + static_cast<std::uint64_t>(b);
        ctr_lo[b] = static_cast<std::uint32_t>(c);
        ctr_hi[b] = static_cast<std::uint32_t>(c >> 32);
    }
    init[12] = _mm256_load_si256(reinterpret_cast<const W*>(ctr_lo));
    init[13] = _mm256_load_si256(reinterpret_cast<const W*>(ctr_hi));
    chacha20_8lanes(init, out);
}

void chacha20_blocks_avx2_impl(const std::uint32_t state[16], std::uint8_t* out,
                               std::size_t nblocks) {
    std::uint64_t counter = static_cast<std::uint64_t>(state[12]) |
                            (static_cast<std::uint64_t>(state[13]) << 32);
    while (nblocks >= 8) {
        chacha20_8blocks(state, counter, out);
        counter += 8;
        out += 8 * 64;
        nblocks -= 8;
    }
    if (nblocks > 0) {
        std::uint32_t tail_state[16];
        std::memcpy(tail_state, state, sizeof(tail_state));
        tail_state[12] = static_cast<std::uint32_t>(counter);
        tail_state[13] = static_cast<std::uint32_t>(counter >> 32);
        scalar_kernels()->chacha20_blocks(tail_state, out, nblocks);
    }
}

void chacha20_seeded_blocks_avx2(const std::uint64_t* seeds, std::uint64_t nonce,
                                 std::uint8_t* out, std::size_t n) {
    W init[16];
    for (int i = 0; i < 4; ++i) init[i] = _mm256_set1_epi32(static_cast<int>(kChaChaSigma[i]));
    init[12] = _mm256_setzero_si256();
    init[13] = _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(nonce)));
    init[14] = _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(nonce >> 32)));
    init[15] = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Row b holds seed b twice (the key is seed || seed), so column w
        // of the transpose is state word 4 + w across the 8 seeds.
        W* key = init + 4;
        for (int b = 0; b < 8; ++b)
            key[b] = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(seeds + 2 * (i + b))));
        transpose_8x8_u32(key);
        chacha20_8lanes(init, out + 64 * i);
    }
    if (i < n) scalar_kernels()->chacha20_seeded_blocks(seeds + 2 * i, nonce, out + 64 * i, n - i);
}

// ------------------------------------------------------------- cr_hash ---

/// 64-bit left rotate per lane: byte shuffles for 16 and 32, shifts else.
template <int R>
inline V rotl64_v(V x) {
    if constexpr (R == 32) {
        return _mm256_shuffle_epi32(x, 0xB1);
    } else if constexpr (R == 16) {
        const V rot16 = _mm256_setr_epi8(6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13,
                                         6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13);
        return _mm256_shuffle_epi8(x, rot16);
    } else {
        return _mm256_or_si256(_mm256_slli_epi64(x, R), _mm256_srli_epi64(x, 64 - R));
    }
}

inline void sip_round_v(V& v0, V& v1, V& v2, V& v3) {
    v0 = _mm256_add_epi64(v0, v1);
    v1 = _mm256_xor_si256(rotl64_v<13>(v1), v0);
    v0 = rotl64_v<32>(v0);
    v2 = _mm256_add_epi64(v2, v3);
    v3 = _mm256_xor_si256(rotl64_v<16>(v3), v2);
    v0 = _mm256_add_epi64(v0, v3);
    v3 = _mm256_xor_si256(rotl64_v<21>(v3), v0);
    v2 = _mm256_add_epi64(v2, v1);
    v1 = _mm256_xor_si256(rotl64_v<17>(v1), v2);
    v2 = rotl64_v<32>(v2);
}

inline V bcast64(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }

/// SipHash-2-4 of the message (m[0], m[1], m[2]) in every lane under the
/// first K cr_hash keys; the K states run interleaved.
template <int K>
inline void siphash24_v(const V m[3], V out[K]) {
    V v[K][4];
    for (int k = 0; k < K; ++k)
        for (int w = 0; w < 4; ++w)
            v[k][w] = bcast64(kCrHashKeys[k][w & 1] ^ kSipHashInit[w]);
    const V words[4] = {m[0], m[1], m[2], bcast64(u64{24} << 56)};
    for (const V& word : words) {
        for (int k = 0; k < K; ++k) {
            v[k][3] = _mm256_xor_si256(v[k][3], word);
            sip_round_v(v[k][0], v[k][1], v[k][2], v[k][3]);
            sip_round_v(v[k][0], v[k][1], v[k][2], v[k][3]);
            v[k][0] = _mm256_xor_si256(v[k][0], word);
        }
    }
    for (int k = 0; k < K; ++k) {
        v[k][2] = _mm256_xor_si256(v[k][2], bcast64(0xFF));
        for (int r = 0; r < 4; ++r) sip_round_v(v[k][0], v[k][1], v[k][2], v[k][3]);
        out[k] = _mm256_xor_si256(_mm256_xor_si256(v[k][0], v[k][1]),
                                  _mm256_xor_si256(v[k][2], v[k][3]));
    }
}

void cr_hash_batch_avx2(const std::uint8_t* x, std::size_t n, u64 tweak, u64 step,
                        const u64 offset[2], bool wide, std::uint8_t* out) {
    if (n < 4) {  // no full pass: skip the vector set-up
        scalar_kernels()->cr_hash_batch(x, n, tweak, step, offset, wide, out);
        return;
    }
    // Unpacking two loads of two blocks each puts the pass's 4 inputs in
    // lane order (0, 2, 1, 3): the tweaks follow that order, the wide
    // stores' unpacks undo it and the narrow store permutes it back.
    const V lane_tweak = _mm256_set_epi64x(static_cast<long long>(3 * step),
                                           static_cast<long long>(1 * step),
                                           static_cast<long long>(2 * step), 0);
    const V off_lo = bcast64(offset[0]);
    const V off_hi = bcast64(offset[1]);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4, tweak += 4 * step) {
        const V a = _mm256_loadu_si256(reinterpret_cast<const V*>(x + 16 * i));
        const V b = _mm256_loadu_si256(reinterpret_cast<const V*>(x + 16 * i + 32));
        const V m[3] = {_mm256_add_epi64(bcast64(tweak), lane_tweak),
                        _mm256_xor_si256(_mm256_unpacklo_epi64(a, b), off_lo),
                        _mm256_xor_si256(_mm256_unpackhi_epi64(a, b), off_hi)};
        if (wide) {
            V h[2];
            siphash24_v<2>(m, h);
            _mm256_storeu_si256(reinterpret_cast<V*>(out + 16 * i),
                                _mm256_unpacklo_epi64(h[0], h[1]));
            _mm256_storeu_si256(reinterpret_cast<V*>(out + 16 * i + 32),
                                _mm256_unpackhi_epi64(h[0], h[1]));
        } else {
            V h[1];
            siphash24_v<1>(m, h);
            _mm256_storeu_si256(reinterpret_cast<V*>(out + 8 * i),
                                _mm256_permute4x64_epi64(h[0], 0xD8));  // lanes 0, 2, 1, 3
        }
    }
    if (i < n)
        scalar_kernels()->cr_hash_batch(x + 16 * i, n - i, tweak, step, offset, wide,
                                        out + (wide ? 16 : 8) * i);
}

}  // namespace

namespace detail {
// Shared with the AVX-512 tier: 8-wide block batching is already
// memory-bound there, so the 512-bit tier reuses this implementation.
void chacha20_blocks_avx2(const std::uint32_t state[16], std::uint8_t* out,
                          std::size_t nblocks) {
    chacha20_blocks_avx2_impl(state, out, nblocks);
}
}  // namespace detail

const Kernels* avx2_kernels() {
    static constexpr Kernels k{
        .tier = Tier::kAvx2,
        .name = "avx2",
        .ntt_forward = &ntt_forward_avx2,
        .ntt_inverse = &ntt_inverse_avx2,
        .mul_shoup = &mul_shoup_avx2,
        .mul_shoup_accumulate = &mul_shoup_accumulate_avx2,
        .mod_switch_4to2 = &mod_switch_4to2_avx2,
        .chacha20_blocks = &chacha20_blocks_avx2_impl,
        .chacha20_seeded_blocks = &chacha20_seeded_blocks_avx2,
        .cr_hash_batch = &cr_hash_batch_avx2,
    };
    return &k;
}

}  // namespace c2pi::he::kernels

#else  // !__AVX2__

namespace c2pi::he::kernels {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace c2pi::he::kernels

#endif
