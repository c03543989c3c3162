#include "crypto/garbling.hpp"

#include <algorithm>

#include "crypto/hash.hpp"

namespace c2pi::crypto {

namespace {

std::size_t input_count(const Circuit& circuit) {
    return static_cast<std::size_t>(circuit.num_garbler_inputs + circuit.num_evaluator_inputs);
}

/// Bytes of the packed output-decode bits that close an instance's wire bytes.
std::size_t decode_bytes(const Circuit& circuit) { return (circuit.outputs.size() + 7) / 8; }

/// Lockstep labels are wire-major: wire w of a group's lane l sits at
/// w * width + l, width = min(count, kGcLanes) lanes per wire.
struct LaneLabels {
    LaneLabels(const Circuit& circuit, std::size_t count)
        : width(std::min(count, kGcLanes)),
          labels(static_cast<std::size_t>(circuit.num_wires) * width) {}

    [[nodiscard]] Block128* wire(std::int32_t w) {
        return labels.data() + static_cast<std::size_t>(w) * width;
    }

    std::size_t width;
    std::vector<Block128> labels;
};

}  // namespace

std::size_t garbled_bytes(const Circuit& circuit) {
    return circuit.and_count() * 32 + decode_bytes(circuit);
}

void garble_batch(const Circuit& circuit, ChaCha20Prg& prg, std::size_t count,
                  std::span<std::uint8_t> garbled, std::span<Block128> deltas,
                  std::span<Block128> input_labels) {
    const std::size_t n_inputs = input_count(circuit);
    const std::size_t stride = garbled_bytes(circuit);
    const std::size_t table_bytes = circuit.and_count() * 32;
    require(garbled.size() == count * stride, "garbled output size mismatch");
    require(deltas.size() == count, "garbling delta count mismatch");
    require(input_labels.size() == count * n_inputs, "garbling input label count mismatch");

    // Every instance's randomness first, in instance order: the draws of
    // `count` one-instance garblings.
    for (std::size_t i = 0; i < count; ++i) {
        deltas[i] = prg.next_block();
        deltas[i].lo |= 1ULL;  // point-and-permute: delta colour bit must be 1
        for (std::size_t k = 0; k < n_inputs; ++k) input_labels[i * n_inputs + k] = prg.next_block();
    }

    LaneLabels zero(circuit, count);  // the group's zero-labels
    Block128 x[2 * kGcLanes], ha[2 * kGcLanes], hb[2 * kGcLanes];
    for (std::size_t first = 0; first < count; first += kGcLanes) {
        const std::size_t lanes = std::min(kGcLanes, count - first);
        const Block128* delta = deltas.data() + first;
        std::uint8_t* const dst = garbled.data() + first * stride;
        for (std::size_t k = 0; k < n_inputs; ++k)
            for (std::size_t l = 0; l < lanes; ++l)
                zero.wire(static_cast<std::int32_t>(k))[l] =
                    input_labels[(first + l) * n_inputs + k];

        std::size_t and_index = 0;
        for (const auto& gate : circuit.gates) {
            const Block128* a = zero.wire(gate.in0);
            Block128* out = zero.wire(gate.out);
            switch (gate.kind) {
                case GateKind::kXor: {
                    const Block128* b = zero.wire(gate.in1);
                    for (std::size_t l = 0; l < lanes; ++l) out[l] = a[l] ^ b[l];
                    break;
                }
                case GateKind::kNot:
                    // Free NOT: output zero-label is the input one-label.
                    for (std::size_t l = 0; l < lanes; ++l) out[l] = a[l] ^ delta[l];
                    break;
                case GateKind::kAnd: {
                    // H(j0, a0), H(j0, a0 ^ delta), then the same over b0 at j1:
                    // each of the four hashes once per lane.
                    const Block128* b = zero.wire(gate.in1);
                    const std::uint64_t j0 = 2 * and_index;
                    const std::span<const Block128> in(x, 2 * lanes);
                    for (std::size_t l = 0; l < lanes; ++l) {
                        x[l] = a[l];
                        x[lanes + l] = a[l] ^ delta[l];
                    }
                    cr_hash_batch(in, j0, 0, Block128{}, std::span<Block128>(ha, 2 * lanes));
                    for (std::size_t l = 0; l < lanes; ++l) {
                        x[l] = b[l];
                        x[lanes + l] = b[l] ^ delta[l];
                    }
                    cr_hash_batch(in, j0 + 1, 0, Block128{}, std::span<Block128>(hb, 2 * lanes));
                    for (std::size_t l = 0; l < lanes; ++l) {
                        const Block128 a0 = a[l];
                        const bool pa = a0.colour();
                        const bool pb = b[l].colour();
                        // Generator half-gate.
                        Block128 tg = ha[l] ^ ha[lanes + l];
                        if (pb) tg ^= delta[l];
                        Block128 wg = ha[l];
                        if (pa) wg ^= tg;
                        // Evaluator half-gate.
                        const Block128 te = hb[l] ^ hb[lanes + l] ^ a0;
                        Block128 we = hb[l];
                        if (pb) we ^= te ^ a0;
                        out[l] = wg ^ we;
                        std::uint8_t* table = dst + l * stride + 32 * and_index;
                        tg.to_bytes(table);
                        te.to_bytes(table + 16);
                    }
                    ++and_index;
                    break;
                }
            }
        }

        for (std::size_t l = 0; l < lanes; ++l) {
            std::uint8_t* decode = dst + l * stride + table_bytes;
            std::fill(decode, decode + decode_bytes(circuit), std::uint8_t{0});
            for (std::size_t o = 0; o < circuit.outputs.size(); ++o) {
                const bool colour = zero.wire(circuit.outputs[o])[l].colour();
                decode[o / 8] |= static_cast<std::uint8_t>(colour << (o % 8));
            }
        }
    }
}

void evaluate_batch(const Circuit& circuit, std::size_t count,
                    std::span<const std::uint8_t> garbled,
                    std::span<const std::uint8_t> garbler_labels,
                    std::span<const Block128> evaluator_labels, std::span<std::uint8_t> out) {
    const std::size_t g_inputs = static_cast<std::size_t>(circuit.num_garbler_inputs);
    const std::size_t e_inputs = static_cast<std::size_t>(circuit.num_evaluator_inputs);
    const std::size_t n_outputs = circuit.outputs.size();
    const std::size_t stride = garbled_bytes(circuit);
    const std::size_t table_bytes = circuit.and_count() * 32;
    require(garbled.size() == count * stride, "garbled table size mismatch");
    require(garbler_labels.size() == count * g_inputs * 16, "garbler label count mismatch");
    require(evaluator_labels.size() == count * e_inputs, "evaluator label count mismatch");
    require(out.size() == count * n_outputs, "garbled output size mismatch");

    LaneLabels active(circuit, count);  // the group's active labels
    Block128 ha[kGcLanes], hb[kGcLanes];
    for (std::size_t first = 0; first < count; first += kGcLanes) {
        const std::size_t lanes = std::min(kGcLanes, count - first);
        const std::uint8_t* const src = garbled.data() + first * stride;
        for (std::size_t l = 0; l < lanes; ++l) {
            const std::uint8_t* g = garbler_labels.data() + (first + l) * g_inputs * 16;
            for (std::size_t k = 0; k < g_inputs; ++k)
                active.wire(static_cast<std::int32_t>(k))[l] = Block128::from_bytes(g + 16 * k);
            const Block128* e = evaluator_labels.data() + (first + l) * e_inputs;
            for (std::size_t k = 0; k < e_inputs; ++k)
                active.wire(static_cast<std::int32_t>(g_inputs + k))[l] = e[k];
        }

        std::size_t and_index = 0;
        for (const auto& gate : circuit.gates) {
            const Block128* a = active.wire(gate.in0);
            Block128* res = active.wire(gate.out);
            switch (gate.kind) {
                case GateKind::kXor: {
                    const Block128* b = active.wire(gate.in1);
                    for (std::size_t l = 0; l < lanes; ++l) res[l] = a[l] ^ b[l];
                    break;
                }
                case GateKind::kNot:
                    for (std::size_t l = 0; l < lanes; ++l) res[l] = a[l];
                    break;
                case GateKind::kAnd: {
                    const Block128* b = active.wire(gate.in1);
                    const std::uint64_t j0 = 2 * and_index;
                    cr_hash_batch(std::span<const Block128>(a, lanes), j0, 0, Block128{},
                                  std::span<Block128>(ha, lanes));
                    cr_hash_batch(std::span<const Block128>(b, lanes), j0 + 1, 0, Block128{},
                                  std::span<Block128>(hb, lanes));
                    for (std::size_t l = 0; l < lanes; ++l) {
                        const std::uint8_t* table = src + l * stride + 32 * and_index;
                        Block128 wg = ha[l];
                        if (a[l].colour()) wg ^= Block128::from_bytes(table);
                        Block128 we = hb[l];
                        if (b[l].colour()) we ^= Block128::from_bytes(table + 16) ^ a[l];
                        res[l] = wg ^ we;
                    }
                    ++and_index;
                    break;
                }
            }
        }

        for (std::size_t l = 0; l < lanes; ++l) {
            const std::uint8_t* decode = src + l * stride + table_bytes;
            for (std::size_t o = 0; o < n_outputs; ++o) {
                const bool colour = active.wire(circuit.outputs[o])[l].colour();
                out[(first + l) * n_outputs + o] =
                    static_cast<std::uint8_t>(colour ^ ((decode[o / 8] >> (o % 8)) & 1U));
            }
        }
    }
}

Garbling garble(const Circuit& circuit, ChaCha20Prg& prg) {
    const auto n_garbler = static_cast<std::ptrdiff_t>(circuit.num_garbler_inputs);
    std::vector<std::uint8_t> bytes(garbled_bytes(circuit));
    std::vector<Block128> labels(input_count(circuit));
    Garbling g;
    garble_batch(circuit, prg, 1, bytes, std::span<Block128>(&g.delta, 1), labels);

    g.tables.resize(circuit.and_count() * 2);
    for (std::size_t k = 0; k < g.tables.size(); ++k)
        g.tables[k] = Block128::from_bytes(bytes.data() + 16 * k);
    g.garbler_zero_labels.assign(labels.begin(), labels.begin() + n_garbler);
    g.evaluator_zero_labels.assign(labels.begin() + n_garbler, labels.end());
    const std::uint8_t* decode = bytes.data() + 16 * g.tables.size();
    for (std::size_t o = 0; o < circuit.outputs.size(); ++o)
        g.output_decode.push_back(static_cast<std::uint8_t>((decode[o / 8] >> (o % 8)) & 1U));
    return g;
}

std::vector<std::uint8_t> evaluate_garbled(const Circuit& circuit,
                                           std::span<const Block128> tables,
                                           std::span<const Block128> active_garbler_labels,
                                           std::span<const Block128> active_evaluator_labels,
                                           std::span<const std::uint8_t> output_decode) {
    require(active_garbler_labels.size() == static_cast<std::size_t>(circuit.num_garbler_inputs),
            "garbler label count mismatch");
    require(active_evaluator_labels.size() ==
                static_cast<std::size_t>(circuit.num_evaluator_inputs),
            "evaluator label count mismatch");
    require(tables.size() == circuit.and_count() * 2, "garbled table size mismatch");
    require(output_decode.size() == circuit.outputs.size(), "output decode size mismatch");

    // The instance's wire bytes and garbler labels as evaluate_batch reads them.
    std::vector<std::uint8_t> bytes(garbled_bytes(circuit), 0);
    for (std::size_t k = 0; k < tables.size(); ++k) tables[k].to_bytes(bytes.data() + 16 * k);
    std::uint8_t* decode = bytes.data() + 16 * tables.size();
    for (std::size_t o = 0; o < output_decode.size(); ++o)
        decode[o / 8] |= static_cast<std::uint8_t>((output_decode[o] & 1U) << (o % 8));
    std::vector<std::uint8_t> garbler_bytes(16 * active_garbler_labels.size());
    for (std::size_t k = 0; k < active_garbler_labels.size(); ++k)
        active_garbler_labels[k].to_bytes(garbler_bytes.data() + 16 * k);

    std::vector<std::uint8_t> out(circuit.outputs.size());
    evaluate_batch(circuit, 1, bytes, garbler_bytes, active_evaluator_labels, out);
    return out;
}

}  // namespace c2pi::crypto
