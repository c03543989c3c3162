#include "mpc/nonlinear.hpp"

#include "crypto/circuit.hpp"
#include "crypto/garbling.hpp"
#include "fss/compare.hpp"
#include "fss/key_pool.hpp"

namespace c2pi::mpc {

namespace {

constexpr std::size_t kGcChunk = 512;  ///< GC instances garbled/streamed per flight

/// Garbler (client) side of one batched GC evaluation. Each element feeds
/// `garbler_words` 64-bit garbler inputs (its shares, then neg_r last) and
/// `eval_words` evaluator inputs. Output value goes to the evaluator.
void gc_batch_garbler(PartyContext& ctx, const crypto::Circuit& circuit,
                      const std::vector<std::span<const Ring>>& garbler_values,
                      std::span<const Ring> neg_r) {
    const std::size_t n = neg_r.size();
    const std::size_t g_words = garbler_values.size() + 1;
    require(static_cast<std::size_t>(circuit.num_garbler_inputs) == 64 * g_words,
            "garbler word count mismatch");
    const std::size_t g_bits = 64 * g_words;
    const std::size_t eval_bits = static_cast<std::size_t>(circuit.num_evaluator_inputs);
    const std::size_t n_inputs = g_bits + eval_bits;

    const std::size_t max_count = std::min(kGcChunk, n);
    std::vector<crypto::Block128> deltas(max_count), zero_labels(max_count * n_inputs);
    for (std::size_t chunk_begin = 0; chunk_begin < n; chunk_begin += kGcChunk) {
        const std::size_t count = std::min(kGcChunk, n - chunk_begin);

        // ---- offline: garble + ship tables and output-decode bits ----
        const auto saved_phase = ctx.transport().phase();
        ctx.transport().set_phase(net::Phase::kOffline);
        std::vector<std::uint8_t> tables_payload(count * crypto::garbled_bytes(circuit));
        crypto::garble_batch(circuit, ctx.prg(), count, tables_payload,
                             std::span(deltas).first(count),
                             std::span(zero_labels).first(count * n_inputs));
        ctx.transport().send_bytes(tables_payload);
        ctx.transport().set_phase(saved_phase);

        // ---- online: evaluator labels via OT (server chooses its bits) ----
        std::vector<crypto::Block128> label0(count * eval_bits), label1(count * eval_bits);
        for (std::size_t i = 0; i < count; ++i)
            for (std::size_t b = 0; b < eval_bits; ++b) {
                label0[i * eval_bits + b] = zero_labels[i * n_inputs + g_bits + b];
                label1[i * eval_bits + b] = zero_labels[i * n_inputs + g_bits + b] ^ deltas[i];
            }
        crypto::ot_send_blocks(ctx.transport(), ctx.ot_sender(), label0, label1);

        // ---- online: active garbler-input labels ----
        std::vector<std::uint8_t> label_payload(count * g_bits * 16);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t e = chunk_begin + i;
            std::size_t wire = 0;
            for (std::size_t w = 0; w < g_words; ++w) {
                const Ring value = w + 1 < g_words ? garbler_values[w][e] : neg_r[e];
                for (int b = 0; b < 64; ++b, ++wire) {
                    crypto::Block128 label = zero_labels[i * n_inputs + wire];
                    if (((value >> b) & 1U) != 0) label ^= deltas[i];
                    label.to_bytes(label_payload.data() + (i * g_bits + wire) * 16);
                }
            }
        }
        ctx.transport().send_bytes(label_payload);
    }
}

/// Evaluator (server) side; returns the decoded 64-bit output per element.
std::vector<Ring> gc_batch_evaluator(PartyContext& ctx, const crypto::Circuit& circuit,
                                     const std::vector<std::span<const Ring>>& eval_values,
                                     std::size_t n) {
    const std::size_t e_words = eval_values.size();
    require(static_cast<std::size_t>(circuit.num_evaluator_inputs) == 64 * e_words,
            "evaluator word count mismatch");
    const std::size_t g_bits = static_cast<std::size_t>(circuit.num_garbler_inputs);
    const std::size_t n_outputs = circuit.outputs.size();

    std::vector<Ring> out(n);
    std::vector<std::uint8_t> bits(std::min(kGcChunk, n) * n_outputs);
    for (std::size_t chunk_begin = 0; chunk_begin < n; chunk_begin += kGcChunk) {
        const std::size_t count = std::min(kGcChunk, n - chunk_begin);

        // Garbled tables land in the AUX scratch: they must stay live
        // while the label transfer below refills the primary scratch.
        const auto saved_phase = ctx.transport().phase();
        ctx.transport().set_phase(net::Phase::kOffline);
        std::vector<std::uint8_t>& tables_payload = ctx.aux_recv_scratch();
        ctx.transport().recv_bytes_into(tables_payload);
        ctx.transport().set_phase(saved_phase);
        require(tables_payload.size() == count * crypto::garbled_bytes(circuit),
                "GC table payload size mismatch");

        // Evaluator label OT: choice bits are this party's share bits.
        std::vector<std::uint8_t> choices(count * 64 * e_words);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t e = chunk_begin + i;
            std::size_t wire = 0;
            for (std::size_t w = 0; w < e_words; ++w) {
                const Ring value = eval_values[w][e];
                for (int b = 0; b < 64; ++b, ++wire)
                    choices[i * 64 * e_words + wire] =
                        static_cast<std::uint8_t>((value >> b) & 1U);
            }
        }
        const auto eval_labels = crypto::ot_recv_blocks(ctx.transport(), ctx.ot_receiver(), choices);
        std::vector<std::uint8_t>& label_payload = ctx.recv_scratch();
        ctx.transport().recv_bytes_into(label_payload);
        require(label_payload.size() == count * g_bits * 16, "GC garbler label size mismatch");

        const std::span<std::uint8_t> chunk_bits(bits.data(), count * n_outputs);
        crypto::evaluate_batch(circuit, count, tables_payload, label_payload, eval_labels,
                               chunk_bits);
        for (std::size_t i = 0; i < count; ++i)
            out[chunk_begin + i] = crypto::from_bits(chunk_bits.subspan(i * n_outputs, n_outputs));
    }
    return out;
}

/// One batched GC evaluation of `circuit` over n elements, reshared: the
/// client (garbler) draws its output share r fresh from the party PRG and
/// garbles with -r folded in, so the server (evaluator) decodes out - r.
std::vector<Ring> gc_reshared(PartyContext& ctx, const crypto::Circuit& circuit,
                              const std::vector<std::span<const Ring>>& shares, std::size_t n) {
    if (ctx.is_server()) return gc_batch_evaluator(ctx, circuit, shares, n);
    std::vector<Ring> fresh(n), neg_r(n);
    for (std::size_t i = 0; i < n; ++i) {
        fresh[i] = ctx.prg().next_u64();
        neg_r[i] = Ring{0} - fresh[i];
    }
    gc_batch_garbler(ctx, circuit, shares, neg_r);
    return fresh;
}

std::vector<Ring> relu_shares_gc(PartyContext& ctx, std::span<const Ring> y_share) {
    static const crypto::Circuit circuit = crypto::build_relu_circuit(64);
    return gc_reshared(ctx, circuit, {y_share}, y_share.size());
}

/// FSS backend: take this layer's keys from the session's dealt batch,
/// reconstruct the masked values in one round, then evaluate the layer's
/// DCFs locally as one tiled batch on the model's pool.
std::vector<Ring> relu_shares_fss(PartyContext& ctx, std::span<const Ring> y_share) {
    const std::size_t n = y_share.size();
    const std::span<const fss::ReluKeyShare> keys = ctx.fss_pool().take(n);
    std::vector<Ring> masked(n);
    for (std::size_t i = 0; i < n; ++i) masked[i] = y_share[i] + keys[i].r_share;
    const auto z = reveal_shares(ctx, masked);
    std::vector<Ring> out(n);
    fss::eval_relu_batch(keys, ctx.party(), z, out, ctx.threads());
    return out;
}

}  // namespace

std::vector<Ring> secure_relu(PartyContext& ctx, std::span<const Ring> y_share,
                              NonlinearBackend backend) {
    if (backend == NonlinearBackend::kGarbledCircuit) return relu_shares_gc(ctx, y_share);
    if (backend == NonlinearBackend::kFss) return relu_shares_fss(ctx, y_share);
    return relu_shares_ot(ctx, y_share);
}

RingTensor secure_maxpool(PartyContext& ctx, const RingTensor& x_share, std::int64_t kernel,
                          std::int64_t stride, NonlinearBackend backend) {
    require(x_share.shape.size() == 3, "secure_maxpool expects [C,H,W] shares");
    const std::int64_t c = x_share.shape[0], h = x_share.shape[1], w = x_share.shape[2];
    const std::int64_t oh = (h - kernel) / stride + 1;
    const std::int64_t ow = (w - kernel) / stride + 1;
    const std::size_t windows = static_cast<std::size_t>(c * oh * ow);
    const std::size_t k2 = static_cast<std::size_t>(kernel * kernel);

    // Gather window elements: lanes[j][win] = share of j-th element of win.
    std::vector<std::vector<Ring>> lanes(k2, std::vector<Ring>(windows));
    std::size_t win = 0;
    for (std::int64_t ch = 0; ch < c; ++ch)
        for (std::int64_t oy = 0; oy < oh; ++oy)
            for (std::int64_t ox = 0; ox < ow; ++ox, ++win) {
                std::size_t j = 0;
                for (std::int64_t ky = 0; ky < kernel; ++ky)
                    for (std::int64_t kx = 0; kx < kernel; ++kx, ++j) {
                        const std::int64_t iy = oy * stride + ky;
                        const std::int64_t ix = ox * stride + kx;
                        lanes[j][win] =
                            x_share.data[static_cast<std::size_t>((ch * h + iy) * w + ix)];
                    }
            }

    if (backend == NonlinearBackend::kGarbledCircuit) {
        // The circuit cache is scoped to the session's compiled model
        // (mpc/gc_cache.hpp) rather than process-wide, so concurrent
        // sessions of different models never contend on its lock.
        const crypto::Circuit& circuit = ctx.gc_cache().max_circuit(static_cast<int>(k2));
        const std::vector<std::span<const Ring>> spans(lanes.begin(), lanes.end());
        return RingTensor({c, oh, ow}, gc_reshared(ctx, circuit, spans, windows));
    }
    // OT and FSS backends: binary tournament of batched pairwise max,
    // max(a, b) = a + ReLU(b - a) elementwise over shares.
    std::vector<std::vector<Ring>> round = std::move(lanes);
    while (round.size() > 1) {
        std::vector<std::vector<Ring>> next;
        for (std::size_t i = 0; i + 1 < round.size(); i += 2) {
            const std::vector<Ring>& a = round[i];
            const std::vector<Ring>& b = round[i + 1];
            std::vector<Ring> diff(a.size());
            for (std::size_t e = 0; e < a.size(); ++e) diff[e] = b[e] - a[e];
            std::vector<Ring> out = secure_relu(ctx, diff, backend);
            for (std::size_t e = 0; e < a.size(); ++e) out[e] += a[e];
            next.push_back(std::move(out));
        }
        if (round.size() % 2 == 1) next.push_back(std::move(round.back()));
        round = std::move(next);
    }
    return RingTensor({c, oh, ow}, std::move(round[0]));
}

std::vector<Ring> reveal_shares(PartyContext& ctx, std::span<const Ring> share) {
    std::vector<Ring> theirs;
    if (ctx.is_server()) {
        ctx.transport().send_u64s(share);
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), theirs);
    } else {
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), theirs);
        ctx.transport().send_u64s(share);
    }
    require(theirs.size() == share.size(), "reveal size mismatch");
    std::vector<Ring> out(share.size());
    for (std::size_t i = 0; i < share.size(); ++i) out[i] = share[i] + theirs[i];
    return out;
}

std::vector<Ring> reveal_shares_to(PartyContext& ctx, std::span<const Ring> share, int to_party) {
    if (ctx.party() == to_party) {
        std::vector<Ring> theirs;
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), theirs);
        require(theirs.size() == share.size(), "reveal size mismatch");
        std::vector<Ring> out(share.size());
        for (std::size_t i = 0; i < share.size(); ++i) out[i] = share[i] + theirs[i];
        return out;
    }
    ctx.transport().send_u64s(share);
    return {};
}

}  // namespace c2pi::mpc
