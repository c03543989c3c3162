#pragma once

/// \file bfv.hpp
/// Mini-BFV over an RNS modulus, specialised for the two-party PI linear
/// layers and written from scratch in place of SEAL:
///
///  * plaintext modulus t = 2^64 == the MPC share ring, so homomorphic
///    conv results are *exact* ring arithmetic;
///  * ciphertext modulus q = product of four ~49-bit NTT primes
///    (q ≈ 2^196, Δ = q/t ≈ 2^132) — enough headroom for VGG-scale
///    plain-weight convolutions (noise ≈ 2^93);
///  * symmetric encryption only (the client owns the key; the server only
///    computes ct (+) ct, ct (x) plain, ct (+) plain);
///  * responses are modulus-switched down to two limbs before shipping;
///  * fresh ciphertexts are seed-compressed (c1 = 32-byte PRG seed), as
///    in Cheetah.

#include <vector>

#include "core/fixed_point.hpp"
#include "core/thread_pool.hpp"
#include "crypto/chacha20.hpp"
#include "he/ntt.hpp"

namespace c2pi::he {

/// Polynomial in RNS representation: limbs[i][j] = coeff j mod prime i.
struct RnsPoly {
    std::vector<std::vector<u64>> limbs;
    bool ntt_form = false;

    [[nodiscard]] int active_limbs() const { return static_cast<int>(limbs.size()); }
};

/// NTT-form plaintext with per-coefficient Shoup companions — the
/// compile-time shape of a server weight polynomial. Built once by
/// BfvContext::to_plain_ntt; multiply_plain(_accumulate) then replaces
/// every 128-bit modular division with a Shoup high-mul.
struct PlainNtt {
    std::vector<std::vector<u64>> limbs;  ///< NTT-form values, [limb][coeff]
    std::vector<std::vector<u64>> shoup;  ///< floor(w * 2^64 / q_i), same layout

    [[nodiscard]] int active_limbs() const { return static_cast<int>(limbs.size()); }
};

struct Ciphertext {
    RnsPoly c0, c1;
    bool ntt_form = false;
    bool seed_compressed = false;   ///< c1 derivable from `seed`
    crypto::Block128 seed{};

    [[nodiscard]] int active_limbs() const { return c0.active_limbs(); }
};

struct SecretKey {
    RnsPoly s_ntt;  ///< ternary secret, NTT form, all limbs
    std::vector<std::vector<u64>> s_shoup;  ///< Shoup companions of s_ntt, same layout
};

class BfvContext {
public:
    struct Params {
        std::size_t n = 4096;   ///< ring degree (power of two)
        int limbs = 4;          ///< RNS primes in the fresh modulus
        int noise_bound = 4;    ///< uniform noise in [-noise_bound, noise_bound]
        /// Borrowed pool for the per-limb loops (poly_ntt/poly_intt/
        /// multiply_plain_accumulate); must outlive the context. Null =
        /// serial, identical schedule to the pre-pool code.
        const core::ThreadPool* pool = nullptr;
    };

    explicit BfvContext(Params params);

    [[nodiscard]] std::size_t n() const { return params_.n; }
    [[nodiscard]] int fresh_limbs() const { return params_.limbs; }
    [[nodiscard]] u64 prime(int i) const { return primes_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] const core::ThreadPool* thread_pool() const { return params_.pool; }

    // -- keys & encryption ----------------------------------------------------
    [[nodiscard]] SecretKey keygen(crypto::ChaCha20Prg& prg) const;

    /// Encrypt a plaintext polynomial (coefficients in Z_{2^64}; at most n
    /// of them, zero padded). Result is in coefficient form, fresh limbs,
    /// seed-compressed.
    [[nodiscard]] Ciphertext encrypt(std::span<const Ring> plain, const SecretKey& sk,
                                     crypto::ChaCha20Prg& prg) const;

    /// Decrypt to n plaintext coefficients in Z_{2^64}.
    [[nodiscard]] std::vector<Ring> decrypt(const Ciphertext& ct, const SecretKey& sk) const;

    // -- homomorphic ops --------------------------------------------------------
    /// Lift an integer polynomial (signed interpretation of Ring values)
    /// to NTT form over the fresh modulus with per-coefficient Shoup
    /// companions, so the online multiply needs no 128-bit division. One
    /// PlainNtt per (weight poly) is built once in CompiledModel and
    /// reused by every inference.
    [[nodiscard]] PlainNtt to_plain_ntt(std::span<const Ring> poly) const;

    void to_ntt(Ciphertext& ct) const;
    void from_ntt(Ciphertext& ct) const;

    /// out = ct * plain (allocates/overwrites `out`; NTT operands, fresh
    /// limbs).
    void multiply_plain(const Ciphertext& ct_ntt, const PlainNtt& plain_ntt,
                        Ciphertext& out) const;
    /// acc += ct * plain (all operands NTT form, fresh limbs).
    void multiply_plain_accumulate(const Ciphertext& ct_ntt, const PlainNtt& plain_ntt,
                                   Ciphertext& acc) const;

    /// c0[positions[i]] += Δ * values[i]   (coefficient form, fresh
    /// limbs). Used by the server to fold its fresh share masks into a
    /// response; they live at a few known output positions, so only
    /// those coefficients are touched.
    void add_plain_at(Ciphertext& ct, std::span<const std::int64_t> positions,
                      std::span<const Ring> values) const;

    /// Drop to the first two limbs with rounding (response compression).
    void mod_switch_to_two_limbs(Ciphertext& ct) const;

    /// Re-derive the c1 polynomial of a seed-compressed ciphertext,
    /// exactly as encrypt() sampled it: uniform in the NTT domain, left
    /// there. A receiver that immediately to_ntt()s the ciphertext skips
    /// the inverse+forward round-trip entirely (to_ntt transforms only
    /// polys still in coefficient form); one that needs coefficients
    /// runs poly_intt, reproducing the historical coefficient expansion.
    [[nodiscard]] RnsPoly expand_seed_poly_ntt(const crypto::Block128& seed, int limbs) const;

private:
    [[nodiscard]] RnsPoly lift_to_ntt(std::span<const Ring> poly) const;
    [[nodiscard]] RnsPoly zero_poly(int limbs) const;
    [[nodiscard]] RnsPoly uniform_poly_from_seed(const crypto::Block128& seed, int limbs) const;
    void poly_ntt(RnsPoly& p) const;
    void poly_intt(RnsPoly& p) const;

    Params params_;
    std::vector<u64> primes_;
    std::vector<NttTables> ntt_;
    std::vector<u64> delta_mod_;          ///< Δ mod q_i (fresh modulus)
    std::vector<u64> delta_shoup_;        ///< Shoup companions of Δ mod q_i
    std::vector<u64> one_shoup_;          ///< floor(2^64 / q_i) for divisionless a mod q_i
    std::vector<u64> r64_, r64_shoup_;    ///< 2^64 mod q_i (+ companion)
    /// decrypt's CRT constants by active-limb count L (index L): qhat_i^{-1}
    /// mod q_i for qhat_i = prod_{k < L, k != i} q_k, and Shoup companions.
    std::vector<std::vector<u64>> qhat_inv_, qhat_inv_shoup_;
    kernels::ModSwitchConsts ms_consts_;  ///< 4 -> 2 limb switch constants (limbs >= 4)
};

}  // namespace c2pi::he
