#include "fss/compare.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "fss/key_pool.hpp"
#include "net/transport.hpp"

namespace c2pi::fss {

namespace {

constexpr Ring kHalfRing = Ring{1} << 63;

/// Comparisons per dealing (and decoding) tile: one DCF each, so one
/// tile fills one DCF tile.
constexpr std::size_t kDealPerTile = kDcfTile;
/// Comparisons per evaluation tile: each key is walked at two points.
constexpr std::size_t kEvalPerTile = kDcfTile / 2;

void put_u64(std::uint8_t* out, std::uint64_t v) { std::memcpy(out, &v, 8); }
std::uint64_t get_u64(const std::uint8_t* in) {
    std::uint64_t v;
    std::memcpy(&v, in, 8);
    return v;
}

/// One comparison's dealer randomness, in gen_relu_material's draw order.
struct ReluDraw {
    Ring r = 0;
    crypto::Block128 root0, root1;
    Ring r_share = 0;  ///< party 0's share of r
};

ReluDraw draw_relu(crypto::ChaCha20Prg& prg) {
    ReluDraw d;
    d.r = prg.next_u64();
    d.root0 = prg.next_block();
    d.root1 = prg.next_block();
    d.r_share = prg.next_u64();
    return d;
}

/// Construct server[c] and client[c] in place for c < m <= kDealPerTile
/// from draws[c]: the tile's m trees walk together.
void deal_tile(const ReluDraw* draws, ReluKeyShare* server, ReluKeyShare* client,
               std::size_t m) {
    std::array<DcfGenInput, kDcfTile> in;
    std::array<DcfKey*, kDcfTile> k0{}, k1{};
    for (std::size_t c = 0; c < m; ++c) {
        // K sits at r + 2^63 with payload (1, r); eval_relu_batch walks
        // it at z and at z + 2^63.
        const ReluDraw& d = draws[c];
        in[c] = {.alpha = d.r + kHalfRing, .beta = {1, d.r}, .root0 = d.root0, .root1 = d.root1};
        k0[c] = &(::new (server + c) ReluKeyShare{.r_share = d.r_share, .key = {}})->key;
        k1[c] = &(::new (client + c) ReluKeyShare{.r_share = d.r - d.r_share, .key = {}})->key;
    }
    dcf_gen_batch({in.data(), m}, {k0.data(), m}, {k1.data(), m});
}

/// fn(base, m) for every tile [base, base + m) of n comparisons, at most
/// per_tile each, tiles on `threads` (in order on the calling thread when
/// it is null).
template <typename Fn>
void for_each_tile(const core::ThreadPool* threads, std::size_t n, std::size_t per_tile,
                   const Fn& fn) {
    const auto tiles = static_cast<std::int64_t>((n + per_tile - 1) / per_tile);
    core::parallel_for(threads, 0, tiles, [&](std::int64_t t) {
        const std::size_t base = static_cast<std::size_t>(t) * per_tile;
        fn(base, std::min(per_tile, n - base));
    });
}

}  // namespace

ReluKeyPair gen_relu_material(crypto::ChaCha20Prg& prg) {
    const ReluDraw d = draw_relu(prg);
    ReluKeyPair out;
    deal_tile(&d, &out.server, &out.client, 1);
    return out;
}

void eval_relu_batch(std::span<const ReluKeyShare> keys, int party, std::span<const Ring> z,
                     std::span<Ring> out, const core::ThreadPool* threads) {
    require(z.size() == keys.size() && out.size() == keys.size(),
            "eval_relu_batch: key, point and output spans differ in size");
    for_each_tile(threads, keys.size(), kEvalPerTile, [&](std::size_t base, std::size_t m) {
        std::array<const DcfKey*, kDcfTile> dcf{};
        std::array<Ring, kDcfTile> xs{};
        std::array<DcfPayload, kDcfTile> at{};
        for (std::size_t c = 0; c < m; ++c) {
            dcf[2 * c] = dcf[2 * c + 1] = &keys[base + c].key;
            xs[2 * c] = z[base + c];
            xs[2 * c + 1] = z[base + c] + kHalfRing;
        }
        dcf_eval_batch({dcf.data(), 2 * m}, party, {xs.data(), 2 * m}, {at.data(), 2 * m});
        for (std::size_t c = 0; c < m; ++c) {
            // Interval containment: 1{(z-r) mod 2^64 in [0, 2^63)} equals
            // DCF_{r+2^63}(z) - DCF_{r+2^63}(z+2^63) + z_hi, case-checked
            // for both halves of z and of r; the payload's second lane
            // carries the same identity multiplied by r.
            const Ring zc = z[base + c];
            const Ring z_hi = zc >> 63;
            const DcfPayload d = at[2 * c] - at[2 * c + 1];
            const Ring u = d.u + (party == 0 ? z_hi : 0);  // share of the drelu bit 1{y >= 0}
            const Ring v = d.v + z_hi * keys[base + c].r_share;  // share of drelu * r
            out[base + c] = zc * u - v;  // shares of drelu * (z - r) = ReLU(y)
        }
    });
}

Ring eval_relu(const ReluKeyShare& key, int party, Ring z) {
    Ring out = 0;
    eval_relu_batch({&key, 1}, party, {&z, 1}, {&out, 1});
    return out;
}

// ------------------------------------------------------------------- codec ---

void ReluKeyShare::serialize_into(std::uint8_t* out) const {
    put_u64(out, r_share);
    key.serialize_into(out + 8);
}

ReluKeyShare ReluKeyShare::deserialize(const std::uint8_t* in) {
    return {.r_share = get_u64(in), .key = DcfKey::deserialize(in + 8)};
}

// ---------------------------------------------------------------- shipment ---

void dealer_replenish(net::Transport& transport, crypto::ChaCha20Prg& prg, KeyPool& pool,
                      std::size_t count, const core::ThreadPool* threads) {
    if (count == 0) return;
    // Every draw comes first, in comparison order, so the keys do not
    // depend on which thread deals which tile.
    std::vector<ReluDraw> draws(count);
    for (ReluDraw& d : draws) d = draw_relu(prg);
    // Neither buffer is zero-filled: the tiles construct and encode every
    // record.
    KeyBatch mine(count);
    const std::size_t bytes = count * ReluKeyShare::kSerializedBytes;
    const auto payload = std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
    for_each_tile(threads, count, kDealPerTile, [&](std::size_t base, std::size_t m) {
        KeyBatch theirs(m);  // the tile's client halves
        deal_tile(draws.data() + base, mine.data() + base, theirs.data(), m);
        for (std::size_t c = 0; c < m; ++c)
            theirs[c].serialize_into(payload.get() +
                                     (base + c) * ReluKeyShare::kSerializedBytes);
    });
    transport.send_keys_bytes({payload.get(), bytes});
    pool.push(std::move(mine));
}

void client_replenish(net::Transport& transport, KeyPool& pool, std::size_t count,
                      const core::ThreadPool* threads) {
    if (count == 0) return;
    const std::vector<std::uint8_t> payload = transport.recv_keys_bytes();
    require(payload.size() == count * ReluKeyShare::kSerializedBytes,
            "fss key batch: shipped key count does not match the plan-derived schedule");
    KeyBatch keys(count);  // not zero-filled: each tile constructs its records
    for_each_tile(threads, count, kDealPerTile, [&](std::size_t base, std::size_t m) {
        for (std::size_t c = base; c < base + m; ++c)
            ::new (&keys[c]) ReluKeyShare(
                ReluKeyShare::deserialize(payload.data() + c * ReluKeyShare::kSerializedBytes));
    });
    pool.push(std::move(keys));
}

}  // namespace c2pi::fss
