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

/// Comparisons per tile: two DCFs each, so one tile fills one DCF tile.
constexpr std::size_t kRelusPerTile = kDcfTile / 2;

void put_u64(std::uint8_t* out, std::uint64_t v) { std::memcpy(out, &v, 8); }
std::uint64_t get_u64(const std::uint8_t* in) {
    std::uint64_t v;
    std::memcpy(&v, in, 8);
    return v;
}

/// One comparison's dealer randomness, in gen_relu_material's draw order.
struct ReluDraw {
    Ring r = 0;
    std::array<crypto::Block128, 4> roots;  ///< K_a's root0, root1, then K_b's
    // Party 0's shares of r, wrap and wrap * r.
    Ring r_share = 0;
    Ring u_share = 0;
    Ring v_share = 0;
};

ReluDraw draw_relu(crypto::ChaCha20Prg& prg) {
    ReluDraw d;
    d.r = prg.next_u64();
    for (crypto::Block128& root : d.roots) root = prg.next_block();
    d.r_share = prg.next_u64();
    d.u_share = prg.next_u64();
    d.v_share = prg.next_u64();
    return d;
}

/// Deal server[c] and client[c] for c < m <= kRelusPerTile from draws[c]:
/// the tile's 2m trees walk together.
void deal_tile(const ReluDraw* draws, ReluKeyShare* server, ReluKeyShare* client,
               std::size_t m) {
    std::array<DcfGenInput, kDcfTile> in;
    std::array<DcfKey*, kDcfTile> k0{}, k1{};
    for (std::size_t c = 0; c < m; ++c) {
        const ReluDraw& d = draws[c];
        // Interval containment: 1{(z-r) mod 2^64 in [0, 2^63)} equals
        // DCF_{r+2^63}(z) - DCF_r(z) + wrap, case-checked for both wrap
        // values; the payload's second lane carries the same identity
        // multiplied by r.
        in[2 * c] = {.alpha = d.r, .beta = {1, d.r}, .root0 = d.roots[0], .root1 = d.roots[1]};
        in[2 * c + 1] = {.alpha = d.r + kHalfRing, .beta = {1, d.r}, .root0 = d.roots[2],
                         .root1 = d.roots[3]};
        k0[2 * c] = &server[c].key_a;
        k1[2 * c] = &client[c].key_a;
        k0[2 * c + 1] = &server[c].key_b;
        k1[2 * c + 1] = &client[c].key_b;

        const bool wrap = d.r >= kHalfRing;
        server[c].r_share = d.r_share;
        client[c].r_share = d.r - d.r_share;
        server[c].u_const = d.u_share;
        client[c].u_const = (wrap ? Ring{1} : Ring{0}) - d.u_share;
        server[c].v_const = d.v_share;
        client[c].v_const = (wrap ? d.r : Ring{0}) - d.v_share;
    }
    dcf_gen_batch({in.data(), 2 * m}, {k0.data(), 2 * m}, {k1.data(), 2 * m});
}

/// fn(base, m) for every tile [base, base + m) of n comparisons, tiles on
/// `threads` (in order on the calling thread when it is null).
template <typename Fn>
void for_each_tile(const core::ThreadPool* threads, std::size_t n, const Fn& fn) {
    const auto tiles = static_cast<std::int64_t>((n + kRelusPerTile - 1) / kRelusPerTile);
    core::parallel_for(threads, 0, tiles, [&](std::int64_t t) {
        const std::size_t base = static_cast<std::size_t>(t) * kRelusPerTile;
        fn(base, std::min(kRelusPerTile, n - base));
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
    for_each_tile(threads, keys.size(), [&](std::size_t base, std::size_t m) {
        std::array<const DcfKey*, kDcfTile> dcf{};
        std::array<Ring, kDcfTile> xs{};
        std::array<DcfPayload, kDcfTile> at{};
        for (std::size_t c = 0; c < m; ++c) {
            dcf[2 * c] = &keys[base + c].key_a;
            dcf[2 * c + 1] = &keys[base + c].key_b;
            xs[2 * c] = xs[2 * c + 1] = z[base + c];
        }
        dcf_eval_batch({dcf.data(), 2 * m}, party, {xs.data(), 2 * m}, {at.data(), 2 * m});
        for (std::size_t c = 0; c < m; ++c) {
            const ReluKeyShare& key = keys[base + c];
            const DcfPayload d = at[2 * c + 1] - at[2 * c];  // K_b minus K_a
            const Ring u = d.u + key.u_const;  // share of the drelu bit 1{y >= 0}
            const Ring v = d.v + key.v_const;  // share of drelu * r
            out[base + c] = z[base + c] * u - v;  // shares of drelu * (z - r) = ReLU(y)
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
    put_u64(out + 8, u_const);
    put_u64(out + 16, v_const);
    key_a.serialize_into(out + 24);
    key_b.serialize_into(out + 24 + DcfKey::kSerializedBytes);
}

ReluKeyShare ReluKeyShare::deserialize(const std::uint8_t* in) {
    ReluKeyShare key;
    key.r_share = get_u64(in);
    key.u_const = get_u64(in + 8);
    key.v_const = get_u64(in + 16);
    key.key_a = DcfKey::deserialize(in + 24);
    key.key_b = DcfKey::deserialize(in + 24 + DcfKey::kSerializedBytes);
    return key;
}

// ---------------------------------------------------------------- shipment ---

void dealer_replenish(net::Transport& transport, crypto::ChaCha20Prg& prg, KeyPool& pool,
                      std::size_t count, const core::ThreadPool* threads) {
    if (count == 0) return;
    // Every draw comes first, in comparison order, so the keys do not
    // depend on which thread deals which tile.
    std::vector<ReluDraw> draws(count);
    for (ReluDraw& d : draws) d = draw_relu(prg);
    std::vector<ReluKeyShare> mine(count);
    const std::size_t bytes = count * ReluKeyShare::kSerializedBytes;
    // Not zero-filled: the tiles encode every record.
    const auto payload = std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
    for_each_tile(threads, count, [&](std::size_t base, std::size_t m) {
        std::vector<ReluKeyShare> theirs(m);  // the tile's client halves
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
    std::vector<ReluKeyShare> keys(count);
    for_each_tile(threads, count, [&](std::size_t base, std::size_t m) {
        for (std::size_t c = base; c < base + m; ++c)
            keys[c] = ReluKeyShare::deserialize(payload.data() + c * ReluKeyShare::kSerializedBytes);
    });
    pool.push(std::move(keys));
}

}  // namespace c2pi::fss
