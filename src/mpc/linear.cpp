#include "mpc/linear.hpp"

#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "core/thread_pool.hpp"

namespace c2pi::mpc {

namespace {

/// Wire format: [limbs u32][flags u32][seed 16B] then c0 limbs, then c1
/// limbs unless seed-compressed. Flag bit 0: seed-compressed. The payload
/// is staged in the session's send scratch buffer — one allocation per
/// session, not per ciphertext.
void send_ciphertext(PartyContext& ctx, const he::Ciphertext& ct) {
    const he::BfvContext& bfv = ctx.bfv();
    require(!ct.ntt_form, "ciphertexts travel in coefficient form");
    const std::size_t n = bfv.n();
    const int limbs = ct.active_limbs();
    const std::size_t c1_words = ct.seed_compressed ? 0 : static_cast<std::size_t>(limbs) * n;
    std::vector<std::uint8_t>& payload = ctx.send_scratch();
    payload.resize(24 + (static_cast<std::size_t>(limbs) * n + c1_words) * 8);
    std::uint32_t header[2] = {static_cast<std::uint32_t>(limbs),
                               static_cast<std::uint32_t>(ct.seed_compressed ? 1 : 0)};
    std::memcpy(payload.data(), header, 8);
    ct.seed.to_bytes(payload.data() + 8);
    std::size_t off = 24;
    for (int i = 0; i < limbs; ++i) {
        std::memcpy(payload.data() + off, ct.c0.limbs[static_cast<std::size_t>(i)].data(), n * 8);
        off += n * 8;
    }
    if (!ct.seed_compressed) {
        for (int i = 0; i < limbs; ++i) {
            std::memcpy(payload.data() + off, ct.c1.limbs[static_cast<std::size_t>(i)].data(), n * 8);
            off += n * 8;
        }
    }
    ctx.transport().send_bytes(payload);
}

[[nodiscard]] he::Ciphertext recv_ciphertext(PartyContext& ctx) {
    const he::BfvContext& bfv = ctx.bfv();
    std::vector<std::uint8_t>& payload = ctx.recv_scratch();
    ctx.transport().recv_bytes_into(payload);
    require(payload.size() >= 24, "ciphertext payload too small");
    std::uint32_t header[2];
    std::memcpy(header, payload.data(), 8);
    const bool seeded = (header[1] & 1U) != 0;
    const std::size_t n = bfv.n();
    // The limb count comes from the peer: bound it, and the payload size
    // it implies, before allocating or copying anything.
    require(header[0] >= 1 && header[0] <= static_cast<std::uint32_t>(bfv.fresh_limbs()),
            "ciphertext limb count out of range");
    const int limbs = static_cast<int>(header[0]);
    require(payload.size() == 24 + static_cast<std::size_t>(limbs) * n * 8 * (seeded ? 1 : 2),
            "ciphertext payload size mismatch");

    he::Ciphertext ct;
    ct.seed = crypto::Block128::from_bytes(payload.data() + 8);
    ct.seed_compressed = seeded;
    ct.c0.limbs.assign(static_cast<std::size_t>(limbs), std::vector<he::u64>(n));
    std::size_t off = 24;
    for (int i = 0; i < limbs; ++i) {
        std::memcpy(ct.c0.limbs[static_cast<std::size_t>(i)].data(), payload.data() + off, n * 8);
        off += n * 8;
    }
    if (seeded) {
        // Re-derive c1 from the seed exactly as encrypt() sampled it:
        // uniform in the NTT domain. It stays there — the server's next
        // step is to_ntt, which now only transforms c0.
        ct.c1 = bfv.expand_seed_poly_ntt(ct.seed, limbs);
    } else {
        ct.c1.limbs.assign(static_cast<std::size_t>(limbs), std::vector<he::u64>(n));
        for (int i = 0; i < limbs; ++i) {
            std::memcpy(ct.c1.limbs[static_cast<std::size_t>(i)].data(), payload.data() + off, n * 8);
            off += n * 8;
        }
    }
    return ct;
}

/// Channel-order handoff between the compute side (one thread driving
/// the layer's parallel_for) and the protocol thread shipping responses:
/// slot i is published the moment its ciphertext is finalized; take(i)
/// blocks until then. A compute-side exception is parked and rethrown
/// from the next take() so the protocol thread never deadlocks on a slot
/// that will never fill.
class ChunkStream {
public:
    explicit ChunkStream(std::size_t count) : slots_(count), ready_(count, 0) {}

    void put(std::size_t i, he::Ciphertext ct) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            slots_[i] = std::move(ct);
            ready_[i] = 1;
        }
        cv_.notify_all();
    }
    void fail(std::exception_ptr error) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            error_ = std::move(error);
        }
        cv_.notify_all();
    }
    [[nodiscard]] he::Ciphertext take(std::size_t i) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return ready_[i] != 0 || error_ != nullptr; });
        if (ready_[i] == 0) std::rethrow_exception(error_);
        return std::move(slots_[i]);
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<he::Ciphertext> slots_;
    std::vector<char> ready_;
    std::exception_ptr error_;
};

/// Compute `count` response ciphertexts and ship them in index order,
/// overlapping the two: a producer thread drives one parallel_for and
/// publishes each chunk as it finishes, while the protocol thread ships
/// chunk o the moment it is ready — later chunks are still in the NTT.
/// Send order and per-message bytes do not depend on the schedule, so
/// the wire transcript (and ChannelStats) never changes; parallel_for's
/// rethrow semantics guarantee every index either publishes or the
/// producer fails the stream after the loop unwinds.
template <typename ComputeFn>
void emit_responses(PartyContext& ctx, std::int64_t count, ComputeFn&& compute) {
    const core::ThreadPool* pool = ctx.bfv().thread_pool();
    ChunkStream stream(static_cast<std::size_t>(count));
    std::thread producer([&] {
        try {
            core::parallel_for(pool, 0, count, [&](std::int64_t o) {
                stream.put(static_cast<std::size_t>(o), compute(o));
            });
        } catch (...) {
            stream.fail(std::current_exception());
        }
    });
    try {
        for (std::int64_t o = 0; o < count; ++o)
            send_ciphertext(ctx, stream.take(static_cast<std::size_t>(o)));
    } catch (...) {
        producer.join();  // compute references stack state; outlive it
        throw;
    }
    producer.join();
}

/// NTT every weight plaintext of a server cache, indexed [response *
/// inputs + input], over the context's thread pool. A cache built without
/// weights is the client's and gets none.
template <typename EncodeFn>
std::vector<he::PlainNtt> weight_ntts(const he::BfvContext& bfv, const he::LinearLayout& layout,
                                      std::span<const Ring> weights, EncodeFn&& encode) {
    std::vector<he::PlainNtt> w_ntt;
    if (weights.empty()) return w_ntt;
    w_ntt.resize(static_cast<std::size_t>(layout.responses() * layout.inputs));
    core::parallel_for(bfv.thread_pool(), 0, layout.responses() * layout.inputs,
                       [&](std::int64_t idx) {
                           w_ntt[static_cast<std::size_t>(idx)] = bfv.to_plain_ntt(
                               encode(idx / layout.inputs, idx % layout.inputs));
                       });
    return w_ntt;
}

}  // namespace

ConvLayerCache::ConvLayerCache(const he::BfvContext& bfv, const he::ConvGeometry& geo,
                               std::span<const Ring> weights, std::span<const Ring> bias2f)
    : LinearLayerCache(weights, bias2f), enc(bfv, geo) {
    w_ntt = weight_ntts(bfv, layout(), weights, [&](std::int64_t o, std::int64_t g) {
        return enc.encode_weight(weights, g, o);
    });
}

std::vector<Ring> ConvLayerCache::plain_part(std::span<const Ring> x_share) const {
    const he::ConvGeometry& geo = enc.geometry();
    std::vector<Ring> y = ring_conv2d(geo, x_share, weights);
    if (!bias2f.empty()) {
        const std::size_t pixels = static_cast<std::size_t>(geo.out_h() * geo.out_w());
        for (std::size_t j = 0; j < y.size(); ++j) y[j] += bias2f[j / pixels];
    }
    return y;
}

MatVecLayerCache::MatVecLayerCache(const he::BfvContext& bfv, std::int64_t in, std::int64_t out,
                                   std::span<const Ring> weights, std::span<const Ring> bias2f)
    : LinearLayerCache(weights, bias2f), enc(bfv, in, out) {
    w_ntt = weight_ntts(bfv, layout(), weights, [&](std::int64_t b, std::int64_t /*input*/) {
        return enc.encode_weight_block(weights, b);
    });
}

std::vector<Ring> MatVecLayerCache::plain_part(std::span<const Ring> x_share) const {
    std::vector<Ring> y = ring_matvec(weights, x_share, enc.in_features(), enc.out_features());
    for (std::size_t j = 0; j < bias2f.size(); ++j) y[j] += bias2f[j];
    return y;
}

std::vector<Ring> he_linear_server(PartyContext& ctx, const LinearLayerCache& cache,
                                   std::span<const Ring> x_share) {
    require(!cache.w_ntt.empty(),
            "the HE linear server needs a cache with precomputed weights (client-only artifact?)");
    const he::BfvContext& bfv = ctx.bfv();
    const he::LinearLayout& layout = cache.layout();

    // Receive the client's encrypted input polynomials.
    std::vector<he::Ciphertext> inputs(static_cast<std::size_t>(layout.inputs));
    for (he::Ciphertext& ct : inputs) {
        ct = recv_ciphertext(ctx);
        bfv.to_ntt(ct);
    }

    // Fresh mask r per output: the client will end with W x_c - r; the
    // server's share is W x_s + bias + r. Masks are drawn up front in
    // output (= response) order so the share-PRG stream never depends on
    // the parallel schedule below.
    std::vector<Ring> out_share = cache.plain_part(x_share);
    std::vector<Ring> masks(out_share.size());
    for (std::size_t j = 0; j < out_share.size(); ++j) {
        const Ring r = ctx.share_prg().next_u64();
        masks[j] = Ring{0} - r;
        out_share[j] += r;
    }

    // Responses in parallel, shipped in response order (the wire
    // transcript is identical to the serial loop) and each streamed the
    // moment it finalizes.
    emit_responses(ctx, layout.responses(), [&](std::int64_t r) {
        const auto w = std::span(cache.w_ntt).subspan(static_cast<std::size_t>(r * layout.inputs),
                                                      static_cast<std::size_t>(layout.inputs));
        he::Ciphertext acc;
        bfv.multiply_plain(inputs[0], w[0], acc);
        for (std::size_t g = 1; g < inputs.size(); ++g)
            bfv.multiply_plain_accumulate(inputs[g], w[g], acc);
        bfv.from_ntt(acc);
        const auto [begin, end] = layout.response_range(r);
        bfv.add_plain_at(acc, std::span(layout.output_coeff).subspan(begin, end - begin),
                         std::span(masks).subspan(begin, end - begin));
        bfv.mod_switch_to_two_limbs(acc);
        return acc;
    });
    return out_share;
}

std::vector<Ring> he_linear_client(PartyContext& ctx, const he::LinearLayout& layout,
                                   std::span<const Ring> x_share) {
    const he::BfvContext& bfv = ctx.bfv();
    const std::vector<Ring> polys = layout.pack_inputs(x_share, bfv.n());
    for (std::int64_t g = 0; g < layout.inputs; ++g) {
        const auto plain = std::span(polys).subspan(static_cast<std::size_t>(g) * bfv.n(), bfv.n());
        send_ciphertext(ctx, bfv.encrypt(plain, ctx.client_key(), ctx.share_prg()));
    }

    std::vector<Ring> out_share(layout.output_coeff.size());
    for (std::int64_t r = 0; r < layout.responses(); ++r) {
        const auto poly = bfv.decrypt(recv_ciphertext(ctx), ctx.client_key());
        const auto [begin, end] = layout.response_range(r);
        for (std::size_t j = begin; j < end; ++j)
            out_share[j] = poly[static_cast<std::size_t>(layout.output_coeff[j])];
    }
    return out_share;
}

}  // namespace c2pi::mpc
