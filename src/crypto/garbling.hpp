#pragma once

/// \file garbling.hpp
/// Half-gates garbling (Zahur, Rosulek, Evans — Eurocrypt 2015) with
/// free-XOR and point-and-permute. AND gates cost two 128-bit table
/// entries; XOR and NOT are free. The correlation-robust hash is
/// crypto::cr_hash (see hash.hpp for the offline substitution note).

#include "crypto/block.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/circuit.hpp"

namespace c2pi::crypto {

/// Everything the garbler produces for one circuit instance.
struct Garbling {
    std::vector<Block128> tables;               ///< 2 entries per AND gate
    std::vector<Block128> garbler_zero_labels;  ///< zero-label per garbler input
    std::vector<Block128> evaluator_zero_labels;///< zero-label per evaluator input
    std::vector<std::uint8_t> output_decode;    ///< colour of each output's zero-label
    Block128 delta;                             ///< free-XOR offset (lsb = 1)

    /// Active label for a garbler input bit.
    [[nodiscard]] Block128 garbler_label(std::size_t i, bool bit) const {
        return bit ? garbler_zero_labels[i] ^ delta : garbler_zero_labels[i];
    }
    /// Label pair for an evaluator input (sent via OT).
    [[nodiscard]] Block128 evaluator_label(std::size_t i, bool bit) const {
        return bit ? evaluator_zero_labels[i] ^ delta : evaluator_zero_labels[i];
    }
};

/// Garble one circuit instance with fresh randomness from `prg`.
[[nodiscard]] Garbling garble(const Circuit& circuit, ChaCha20Prg& prg);

/// Evaluate a garbled circuit given the active input labels; returns the
/// decoded output bits.
[[nodiscard]] std::vector<std::uint8_t> evaluate_garbled(
    const Circuit& circuit, std::span<const Block128> tables,
    std::span<const Block128> active_garbler_labels,
    std::span<const Block128> active_evaluator_labels,
    std::span<const std::uint8_t> output_decode);

// -- bit/word packing helpers ----------------------------------------------------

/// Little-endian bit decomposition of a 64-bit ring element.
[[nodiscard]] inline std::vector<std::uint8_t> to_bits(std::uint64_t v, int bits) {
    std::vector<std::uint8_t> out(static_cast<std::size_t>(bits));
    for (int i = 0; i < bits; ++i) out[static_cast<std::size_t>(i)] = (v >> i) & 1U;
    return out;
}

[[nodiscard]] inline std::uint64_t from_bits(std::span<const std::uint8_t> bits) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
        v |= static_cast<std::uint64_t>(bits[i] & 1U) << i;
    return v;
}

}  // namespace c2pi::crypto
