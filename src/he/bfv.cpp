#include "he/bfv.hpp"

namespace c2pi::he {

namespace {
/// Signed lift of a ring element into [0, p), divisionless (one Shoup
/// high-mul instead of a 128-bit division per coefficient). The magnitude
/// of a negative value is computed in unsigned arithmetic (u64{0} - v):
/// negating INT64_MIN — a perfectly legal ring element, and a uniformly
/// likely mask value — would be signed-overflow UB.
u64 lift_signed_shoup(Ring v, u64 p, u64 one_shoup) {
    const auto sv = static_cast<std::int64_t>(v);
    if (sv >= 0) return reduce_mod_shoup(static_cast<u64>(sv), one_shoup, p);
    const u64 mag = reduce_mod_shoup(u64{0} - v, one_shoup, p);
    return mag == 0 ? 0 : p - mag;
}

/// floor(x 2^64 / p) and (x 2^64) mod p for x < p, divisionless: with
/// 2^64 = f p + r (f = floor(2^64 / p)), x 2^64 = x f p + x r, and one
/// Shoup product splits x r into quot p + rem.
struct Scaled64 {
    u64 quot, rem;
};
Scaled64 scale_by_2_64(u64 x, u64 p, u64 f, u64 r, u64 r_shoup) {
    const u64 q = static_cast<u64>((static_cast<u128>(x) * r_shoup) >> 64);
    Scaled64 out{x * f + q, x * r - q * p};  // rem in [0, 2p)
    if (out.rem >= p) {
        out.rem -= p;
        ++out.quot;
    }
    return out;
}
}  // namespace

BfvContext::BfvContext(Params params) : params_(params) {
    require(params_.limbs >= 2 && params_.limbs <= 8, "limb count out of range");
    require(params_.n >= 16, "ring degree too small");
    const u64 step = 2 * static_cast<u64>(params_.n);
    u64 start = (1ULL << 49) + 1;
    for (int i = 0; i < params_.limbs; ++i) {
        const u64 p = next_ntt_prime(start, step);
        primes_.push_back(p);
        ntt_.emplace_back(p, params_.n);
        start = p + 2;
    }

    // Δ = floor(q / 2^64): with ~49-bit primes q has 4*49 = 196 bits; the
    // division by 2^64 is exactly "drop the lowest 64-bit word" of q.
    // Compute q as a little-endian multiword integer.
    std::vector<u64> q_words{1};
    for (const u64 p : primes_) {
        std::vector<u64> next(q_words.size() + 1, 0);
        u128 carry = 0;
        for (std::size_t w = 0; w < q_words.size(); ++w) {
            const u128 prod = static_cast<u128>(q_words[w]) * p + carry;
            next[w] = static_cast<u64>(prod);
            carry = prod >> 64;
        }
        next[q_words.size()] = static_cast<u64>(carry);
        while (next.size() > 1 && next.back() == 0) next.pop_back();
        q_words = std::move(next);
    }
    require(q_words.size() >= 2, "modulus must exceed 2^64");
    const std::vector<u64> delta_words(q_words.begin() + 1, q_words.end());

    // Δ mod q_i by multiword Horner reduction.
    delta_mod_.resize(primes_.size());
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const u64 p = primes_[i];
        u64 r = 0;
        for (std::size_t w = delta_words.size(); w > 0; --w) {
            const u128 val = (static_cast<u128>(r) << 64) | delta_words[w - 1];
            r = static_cast<u64>(val % p);
        }
        delta_mod_[i] = r;
    }

    // Online-phase Shoup companions: every per-coefficient division in
    // the response path (add_plain, mod switch) becomes a high-mul.
    delta_shoup_.resize(primes_.size());
    one_shoup_.resize(primes_.size());
    r64_.resize(primes_.size());
    r64_shoup_.resize(primes_.size());
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const u64 p = primes_[i];
        delta_shoup_[i] = shoup_precompute(delta_mod_[i], p);
        one_shoup_[i] = reduce_precompute(p);
        r64_[i] = static_cast<u64>((static_cast<u128>(1) << 64) % p);
        r64_shoup_[i] = shoup_precompute(r64_[i], p);
    }

    // decrypt's CRT constants for every active-limb count it can meet.
    qhat_inv_.resize(primes_.size() + 1);
    qhat_inv_shoup_.resize(primes_.size() + 1);
    for (std::size_t limbs = 1; limbs <= primes_.size(); ++limbs) {
        for (std::size_t i = 0; i < limbs; ++i) {
            const u64 p = primes_[i];
            u64 qhat = 1;
            for (std::size_t k = 0; k < limbs; ++k)
                if (k != i) qhat = mul_mod(qhat, primes_[k] % p, p);
            qhat_inv_[limbs].push_back(inv_mod(qhat, p));
            qhat_inv_shoup_[limbs].push_back(shoup_precompute(qhat_inv_[limbs].back(), p));
        }
    }

    if (params_.limbs >= 4) {
        const u128 drop = static_cast<u128>(primes_[2]) * primes_[3];
        ms_consts_.q3 = primes_[2];
        ms_consts_.q4 = primes_[3];
        ms_consts_.one_shoup_q4 = one_shoup_[3];
        ms_consts_.q3_inv = inv_mod(primes_[2] % primes_[3], primes_[3]);
        ms_consts_.q3_inv_shoup = shoup_precompute(ms_consts_.q3_inv, primes_[3]);
        for (std::size_t i = 0; i < 2; ++i) {
            const u64 p = primes_[i];
            ms_consts_.p[i] = p;
            ms_consts_.one_shoup[i] = one_shoup_[i];
            ms_consts_.r64[i] = r64_[i];
            ms_consts_.r64_shoup[i] = r64_shoup_[i];
            ms_consts_.drop_inv[i] = inv_mod(static_cast<u64>(drop % p), p);
            ms_consts_.drop_inv_shoup[i] = shoup_precompute(ms_consts_.drop_inv[i], p);
        }
    }
}

RnsPoly BfvContext::zero_poly(int limbs) const {
    RnsPoly p;
    p.limbs.assign(static_cast<std::size_t>(limbs), std::vector<u64>(params_.n, 0));
    return p;
}

RnsPoly BfvContext::uniform_poly_from_seed(const crypto::Block128& seed, int limbs) const {
    RnsPoly p = zero_poly(limbs);
    for (int i = 0; i < limbs; ++i) {
        crypto::ChaCha20Prg prg(seed, /*nonce=*/0xA0000 + static_cast<std::uint64_t>(i));
        const u64 q = primes_[static_cast<std::size_t>(i)];
        const u64 limit = ~0ULL - (~0ULL % q) - 1;  // rejection bound
        for (std::size_t j = 0; j < params_.n; ++j) {
            u64 v = prg.next_u64();
            while (v > limit) v = prg.next_u64();
            p.limbs[static_cast<std::size_t>(i)][j] = v % q;
        }
    }
    return p;
}

void BfvContext::poly_ntt(RnsPoly& p) const {
    require(!p.ntt_form, "poly already in NTT form");
    core::parallel_for(params_.pool, 0, static_cast<std::int64_t>(p.limbs.size()),
                       [&](std::int64_t i) {
                           const auto u = static_cast<std::size_t>(i);
                           ntt_[u].forward(p.limbs[u]);
                       });
    p.ntt_form = true;
}

void BfvContext::poly_intt(RnsPoly& p) const {
    require(p.ntt_form, "poly not in NTT form");
    core::parallel_for(params_.pool, 0, static_cast<std::int64_t>(p.limbs.size()),
                       [&](std::int64_t i) {
                           const auto u = static_cast<std::size_t>(i);
                           ntt_[u].inverse(p.limbs[u]);
                       });
    p.ntt_form = false;
}

SecretKey BfvContext::keygen(crypto::ChaCha20Prg& prg) const {
    SecretKey sk;
    sk.s_ntt = zero_poly(params_.limbs);
    for (std::size_t j = 0; j < params_.n; ++j) {
        const std::uint64_t bits = prg.next_u64();
        // P(-1) = P(+1) = 1/4, P(0) = 1/2.
        const int v = static_cast<int>(bits & 1U) - static_cast<int>((bits >> 1) & 1U);
        for (std::size_t i = 0; i < primes_.size(); ++i) {
            sk.s_ntt.limbs[i][j] = v >= 0 ? static_cast<u64>(v) : primes_[i] - 1;
        }
    }
    poly_ntt(sk.s_ntt);
    sk.s_shoup.resize(primes_.size());
    for (std::size_t i = 0; i < primes_.size(); ++i)
        for (const u64 s : sk.s_ntt.limbs[i]) sk.s_shoup[i].push_back(shoup_precompute(s, primes_[i]));
    return sk;
}

Ciphertext BfvContext::encrypt(std::span<const Ring> plain, const SecretKey& sk,
                               crypto::ChaCha20Prg& prg) const {
    require(plain.size() <= params_.n, "plaintext longer than ring degree");
    Ciphertext ct;
    ct.seed = prg.next_block();
    ct.seed_compressed = true;

    // c1 = a (uniform), sampled in NTT form directly from the seed.
    RnsPoly a = uniform_poly_from_seed(ct.seed, params_.limbs);
    a.ntt_form = true;

    // a * s in NTT domain, back to coefficients.
    RnsPoly as = zero_poly(params_.limbs);
    as.ntt_form = true;
    const auto& kr = kernels::active();
    for (std::size_t i = 0; i < primes_.size(); ++i)
        kr.mul_shoup(as.limbs[i].data(), a.limbs[i].data(), sk.s_ntt.limbs[i].data(),
                     sk.s_shoup[i].data(), params_.n, primes_[i]);
    poly_intt(as);

    // c0 = -(a s) + e + Δ m   (coefficient form).
    ct.c0 = zero_poly(params_.limbs);
    for (std::size_t j = 0; j < params_.n; ++j) {
        const int e = static_cast<int>(prg.next_u64() % (2 * params_.noise_bound + 1)) -
                      params_.noise_bound;
        const Ring m = j < plain.size() ? plain[j] : 0;
        for (std::size_t i = 0; i < primes_.size(); ++i) {
            const u64 p = primes_[i];
            u64 v = sub_mod(0, as.limbs[i][j], p);
            v = add_mod(v, e >= 0 ? static_cast<u64>(e) : p - static_cast<u64>(-e), p);
            const u64 m_p = lift_signed_shoup(m, p, one_shoup_[i]);
            v = add_mod(v, mul_mod_shoup(m_p, delta_mod_[i], delta_shoup_[i], p), p);
            ct.c0.limbs[i][j] = v;
        }
    }

    // Store c1 in coefficient form so the whole ciphertext is uniform.
    poly_intt(a);
    ct.c1 = std::move(a);
    ct.ntt_form = false;
    return ct;
}

std::vector<Ring> BfvContext::decrypt(const Ciphertext& ct, const SecretKey& sk) const {
    require(!ct.ntt_form, "decrypt expects coefficient form");
    const int limbs = ct.active_limbs();
    require(limbs >= 1 && limbs <= params_.limbs, "decrypt limb count out of range");
    const auto L = static_cast<std::size_t>(limbs);

    // c(s) = c0 + c1 * s per limb.
    const auto& kr = kernels::active();
    std::vector<std::vector<u64>> cs(L);
    for (std::size_t i = 0; i < L; ++i) {
        const u64 p = primes_[i];
        std::vector<u64> c1 = ct.c1.limbs[i];
        ntt_[i].forward(c1);
        kr.mul_shoup(c1.data(), c1.data(), sk.s_ntt.limbs[i].data(), sk.s_shoup[i].data(),
                     params_.n, p);
        ntt_[i].inverse(c1);
        for (std::size_t j = 0; j < params_.n; ++j) c1[j] = add_mod(c1[j], ct.c0.limbs[i][j], p);
        cs[i] = std::move(c1);
    }

    // m = round(t * c(s) / q) mod t with t = 2^64:
    //   write c = sum_i y_i * (q / q_i) - h q with y_i = [c_i * qhat_i^{-1}]_{q_i};
    //   then t c / q = sum_i y_i * 2^64 / q_i  (mod 2^64) since h t ≡ 0.
    // Each term's integer part accumulates mod 2^64; its fraction
    // rem_i / q_i accumulates as floor(rem_i 2^64 / q_i), 64-bit fixed point.
    const std::vector<u64>& qhat_inv = qhat_inv_[L];
    const std::vector<u64>& qhat_inv_shoup = qhat_inv_shoup_[L];
    std::vector<Ring> out(params_.n);
    for (std::size_t j = 0; j < params_.n; ++j) {
        u64 integer_part = 0;
        u128 fraction = 0;
        for (std::size_t i = 0; i < L; ++i) {
            const u64 p = primes_[i];
            const u64 y = mul_mod_shoup(cs[i][j], qhat_inv[i], qhat_inv_shoup[i], p);
            const Scaled64 term = scale_by_2_64(y, p, one_shoup_[i], r64_[i], r64_shoup_[i]);
            integer_part += term.quot;
            fraction += scale_by_2_64(term.rem, p, one_shoup_[i], r64_[i], r64_shoup_[i]).quot;
        }
        out[j] = integer_part + static_cast<u64>((fraction + (u128{1} << 63)) >> 64);
    }
    return out;
}

RnsPoly BfvContext::lift_to_ntt(std::span<const Ring> poly) const {
    require(poly.size() <= params_.n, "plain poly longer than ring degree");
    RnsPoly p = zero_poly(params_.limbs);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        for (std::size_t j = 0; j < poly.size(); ++j)
            p.limbs[i][j] = lift_signed_shoup(poly[j], primes_[i], one_shoup_[i]);
    }
    poly_ntt(p);
    return p;
}

PlainNtt BfvContext::to_plain_ntt(std::span<const Ring> poly) const {
    const RnsPoly lifted = lift_to_ntt(poly);
    PlainNtt out;
    out.limbs = lifted.limbs;
    out.shoup.resize(out.limbs.size());
    for (std::size_t i = 0; i < out.limbs.size(); ++i) {
        const u64 p = primes_[i];
        out.shoup[i].resize(params_.n);
        for (std::size_t j = 0; j < params_.n; ++j)
            out.shoup[i][j] = shoup_precompute(out.limbs[i][j], p);
    }
    return out;
}

void BfvContext::to_ntt(Ciphertext& ct) const {
    require(!ct.ntt_form, "ciphertext already in NTT form");
    // Polys already in NTT form pass through: a seed-expanded c1
    // (expand_seed_poly_ntt) is sampled NTT-side and needs no transform.
    if (!ct.c0.ntt_form) poly_ntt(ct.c0);
    if (!ct.c1.ntt_form) poly_ntt(ct.c1);
    ct.ntt_form = true;
}

void BfvContext::from_ntt(Ciphertext& ct) const {
    require(ct.ntt_form, "ciphertext not in NTT form");
    poly_intt(ct.c0);
    poly_intt(ct.c1);
    ct.ntt_form = false;
}

RnsPoly BfvContext::expand_seed_poly_ntt(const crypto::Block128& seed, int limbs) const {
    RnsPoly a = uniform_poly_from_seed(seed, limbs);
    a.ntt_form = true;  // sampled in the NTT domain by convention
    return a;
}

void BfvContext::multiply_plain_accumulate(const Ciphertext& ct_ntt, const PlainNtt& plain_ntt,
                                           Ciphertext& acc) const {
    require(ct_ntt.ntt_form && acc.ntt_form, "multiply_plain_accumulate expects NTT operands");
    require(ct_ntt.active_limbs() == params_.limbs, "operand must be at fresh modulus");
    require(plain_ntt.active_limbs() == params_.limbs, "precomputed plain must be fresh-limb");
    const auto& kr = kernels::active();
    core::parallel_for(params_.pool, 0, static_cast<std::int64_t>(primes_.size()),
                       [&](std::int64_t limb) {
        const auto i = static_cast<std::size_t>(limb);
        const u64 p = primes_[i];
        const auto& w = plain_ntt.limbs[i];
        const auto& ws = plain_ntt.shoup[i];
        kr.mul_shoup_accumulate(acc.c0.limbs[i].data(), ct_ntt.c0.limbs[i].data(), w.data(),
                                ws.data(), params_.n, p);
        kr.mul_shoup_accumulate(acc.c1.limbs[i].data(), ct_ntt.c1.limbs[i].data(), w.data(),
                                ws.data(), params_.n, p);
    });
}

void BfvContext::multiply_plain(const Ciphertext& ct_ntt, const PlainNtt& plain_ntt,
                                Ciphertext& out) const {
    require(ct_ntt.ntt_form, "multiply_plain expects an NTT operand");
    require(ct_ntt.active_limbs() == params_.limbs, "operand must be at fresh modulus");
    require(plain_ntt.active_limbs() == params_.limbs, "precomputed plain must be fresh-limb");
    const auto limbs = static_cast<std::size_t>(params_.limbs);
    out.c0.limbs.resize(limbs);
    out.c1.limbs.resize(limbs);
    const auto& kr = kernels::active();
    core::parallel_for(params_.pool, 0, static_cast<std::int64_t>(limbs), [&](std::int64_t limb) {
        const auto i = static_cast<std::size_t>(limb);
        const u64 p = primes_[i];
        const auto& w = plain_ntt.limbs[i];
        const auto& ws = plain_ntt.shoup[i];
        out.c0.limbs[i].resize(params_.n);
        out.c1.limbs[i].resize(params_.n);
        kr.mul_shoup(out.c0.limbs[i].data(), ct_ntt.c0.limbs[i].data(), w.data(), ws.data(),
                     params_.n, p);
        kr.mul_shoup(out.c1.limbs[i].data(), ct_ntt.c1.limbs[i].data(), w.data(), ws.data(),
                     params_.n, p);
    });
    out.c0.ntt_form = out.c1.ntt_form = true;
    out.ntt_form = true;
    out.seed_compressed = false;
}

void BfvContext::add_plain_at(Ciphertext& ct, std::span<const std::int64_t> positions,
                              std::span<const Ring> values) const {
    require(!ct.ntt_form, "add_plain expects coefficient form");
    // Δ is precomputed for the fresh modulus only; the server folds its
    // masks in before the response is switched down to two limbs.
    require(ct.active_limbs() == params_.limbs, "add_plain only supported at the fresh modulus");
    require(positions.size() == values.size(), "add_plain_at positions/values mismatch");
    for (const std::int64_t pos : positions)
        require(pos >= 0 && static_cast<std::size_t>(pos) < params_.n,
                "add_plain_at position out of range");
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const u64 p = primes_[i];
        const u64 one_shoup = one_shoup_[i];
        const u64 delta = delta_mod_[i];
        const u64 delta_shoup = delta_shoup_[i];
        auto& c0 = ct.c0.limbs[i];
        for (std::size_t k = 0; k < positions.size(); ++k) {
            const auto j = static_cast<std::size_t>(positions[k]);
            const u64 m = lift_signed_shoup(values[k], p, one_shoup);
            c0[j] = add_mod(c0[j], mul_mod_shoup(m, delta, delta_shoup, p), p);
        }
    }
    ct.seed_compressed = false;
}

void BfvContext::mod_switch_to_two_limbs(Ciphertext& ct) const {
    require(!ct.ntt_form, "mod switch expects coefficient form");
    require(ct.active_limbs() == 4, "mod switch implemented for 4 -> 2 limbs");
    const auto& kr = kernels::active();
    for (RnsPoly* poly : {&ct.c0, &ct.c1}) {
        kr.mod_switch_4to2(poly->limbs[0].data(), poly->limbs[1].data(), poly->limbs[2].data(),
                           poly->limbs[3].data(), params_.n, ms_consts_);
        poly->limbs.resize(2);
    }
    ct.seed_compressed = false;
}

}  // namespace c2pi::he
