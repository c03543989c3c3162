#pragma once

/// \file garbling.hpp
/// Half-gates garbling (Zahur, Rosulek, Evans — Eurocrypt 2015) with
/// free-XOR and point-and-permute. AND gates cost two 128-bit table
/// entries; XOR and NOT are free. The correlation-robust hash is
/// crypto::cr_hash (see hash.hpp for the offline substitution note).
///
/// Many instances of one circuit are garbled and evaluated in lockstep:
/// groups of kGcLanes instances walk the gate list together, so every
/// AND gate hashes the whole group's labels in one batched cr_hash call
/// per tweak, and the garbler hashes a0, a0 ^ delta, b0 and b0 ^ delta
/// once each (4 hashes per AND). Each instance's randomness is drawn
/// before any gate is garbled, in instance order, so a batch of n
/// instances produces exactly the bytes of n one-instance garblings.

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

/// Instances garbled or evaluated together, gate by gate.
inline constexpr std::size_t kGcLanes = 16;

/// Wire bytes of one garbled instance: its 2 table blocks per AND gate
/// (16 bytes each, gate order), then its output-decode bits packed
/// lsb-first.
[[nodiscard]] std::size_t garbled_bytes(const Circuit& circuit);

/// Garble `count` instances of `circuit`. Instance i's delta and input
/// zero-labels are drawn from `prg` first, in instance order, exactly as
/// `count` garble() calls draw them; the instances are then garbled in
/// lockstep groups of kGcLanes. Instance i's wire bytes go to
/// garbled[i * garbled_bytes(circuit)...], its delta to deltas[i] and the
/// zero-labels of its inputs (garbler inputs, then evaluator inputs) to
/// input_labels[i * n_inputs...].
void garble_batch(const Circuit& circuit, ChaCha20Prg& prg, std::size_t count,
                  std::span<std::uint8_t> garbled, std::span<Block128> deltas,
                  std::span<Block128> input_labels);

/// Evaluate `count` instances in lockstep groups of kGcLanes, straight
/// from their wire bytes (`garbled`, laid out as garble_batch writes
/// them). Instance i's active garbler-input labels are the 16-byte blocks
/// at garbler_labels[16 * i * G...] (G garbler inputs), its evaluator-input
/// labels evaluator_labels[i * E...]. Decoded output bit o of instance i
/// goes to out[i * n_outputs + o].
void evaluate_batch(const Circuit& circuit, std::size_t count,
                    std::span<const std::uint8_t> garbled,
                    std::span<const std::uint8_t> garbler_labels,
                    std::span<const Block128> evaluator_labels, std::span<std::uint8_t> out);

/// Garble one circuit instance with fresh randomness from `prg` (a
/// one-instance garble_batch).
[[nodiscard]] Garbling garble(const Circuit& circuit, ChaCha20Prg& prg);

/// Evaluate a garbled circuit given the active input labels; returns the
/// decoded output bits (a one-instance evaluate_batch).
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
