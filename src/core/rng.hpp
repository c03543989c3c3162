#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation for experiments.
///
/// All stochastic components of the library (weight init, synthetic data,
/// attack initialisation, secret sharing randomness used in *tests*) draw
/// from this xoshiro256** generator so that every experiment in the paper
/// reproduction is bit-reproducible from a single seed. Cryptographic
/// randomness inside protocols uses crypto::ChaCha20Prg instead.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace c2pi {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Default seed used across the repo; every experiment is reproducible
/// from it (benches expose a --seed flag to override).
inline constexpr std::uint64_t kDefaultSeed = 0x00C2'F1DE'FA17'5EEDULL;

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, deterministic.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = kDefaultSeed) { reseed(seed); }

    void reseed(std::uint64_t seed) {
        SplitMix64 sm(seed);
        for (auto& s : state_) s = sm.next();
        have_cached_normal_ = false;
    }

    std::uint64_t next_u64() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

    /// Uniform float in [lo, hi).
    float uniform(float lo, float hi) {
        return lo + static_cast<float>(uniform()) * (hi - lo);
    }

    /// Uniform integer in [0, n).  n must be > 0.
    std::uint64_t uniform_index(std::uint64_t n) {
        // Lemire's nearly-divisionless bounded sampling.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next_u64()) * static_cast<unsigned __int128>(n);
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Standard normal via Box–Muller (cached second value).
    float normal();

    /// Normal with mean/stddev.
    float normal(float mean, float stddev) { return mean + stddev * normal(); }

    /// Fisher–Yates shuffle of an index vector.
    void shuffle(std::vector<std::size_t>& v);

    // UniformRandomBitGenerator interface for <random> interop.
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next_u64(); }

private:
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

    std::uint64_t state_[4] = {};
    bool have_cached_normal_ = false;
    float cached_normal_ = 0.0F;
};

}  // namespace c2pi
