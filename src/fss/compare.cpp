#include "fss/compare.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/error.hpp"
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

/// Deal server[c] and client[c] for c < m <= kRelusPerTile: draw each
/// comparison's randomness in gen_relu_material's order, then walk the
/// tile's 2m trees together.
void deal_tile(crypto::ChaCha20Prg& prg, ReluKeyShare* server, ReluKeyShare* client,
               std::size_t m) {
    std::array<DcfGenInput, kDcfTile> in;
    std::array<DcfKey*, kDcfTile> k0{}, k1{};
    for (std::size_t c = 0; c < m; ++c) {
        const Ring r = prg.next_u64();
        // Interval containment: 1{(z-r) mod 2^64 in [0, 2^63)} equals
        // DCF_{r+2^63}(z) - DCF_r(z) + wrap, case-checked for both wrap
        // values; the payload's second lane carries the same identity
        // multiplied by r.
        in[2 * c] = {.alpha = r, .beta = {1, r}, .root0 = prg.next_block(),
                     .root1 = prg.next_block()};
        in[2 * c + 1] = {.alpha = r + kHalfRing, .beta = {1, r}, .root0 = prg.next_block(),
                         .root1 = prg.next_block()};
        k0[2 * c] = &server[c].key_a;
        k1[2 * c] = &client[c].key_a;
        k0[2 * c + 1] = &server[c].key_b;
        k1[2 * c + 1] = &client[c].key_b;

        const bool wrap = r >= kHalfRing;
        server[c].r_share = prg.next_u64();
        client[c].r_share = r - server[c].r_share;
        server[c].u_const = prg.next_u64();
        client[c].u_const = (wrap ? Ring{1} : Ring{0}) - server[c].u_const;
        server[c].v_const = prg.next_u64();
        client[c].v_const = (wrap ? r : Ring{0}) - server[c].v_const;
    }
    dcf_gen_batch({in.data(), 2 * m}, {k0.data(), 2 * m}, {k1.data(), 2 * m});
}

}  // namespace

ReluKeyPair gen_relu_material(crypto::ChaCha20Prg& prg) {
    ReluKeyPair out;
    deal_tile(prg, &out.server, &out.client, 1);
    return out;
}

void eval_relu_batch(std::span<const ReluKeyShare> keys, int party, std::span<const Ring> z,
                     std::span<Ring> out) {
    require(z.size() == keys.size() && out.size() == keys.size(),
            "eval_relu_batch: key, point and output spans differ in size");
    std::array<const DcfKey*, kDcfTile> dcf{};
    std::array<Ring, kDcfTile> xs{};
    std::array<DcfPayload, kDcfTile> at{};
    for (std::size_t base = 0; base < keys.size(); base += kRelusPerTile) {
        const std::size_t m = std::min(kRelusPerTile, keys.size() - base);
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
    }
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
                      std::size_t count) {
    if (count == 0) return;
    std::vector<ReluKeyShare> mine(count);
    std::vector<std::uint8_t> payload(count * ReluKeyShare::kSerializedBytes);
    std::vector<ReluKeyShare> theirs(std::min(count, kRelusPerTile));  // one tile's client halves
    for (std::size_t base = 0; base < count; base += kRelusPerTile) {
        const std::size_t m = std::min(kRelusPerTile, count - base);
        deal_tile(prg, mine.data() + base, theirs.data(), m);
        for (std::size_t c = 0; c < m; ++c)
            theirs[c].serialize_into(payload.data() + (base + c) * ReluKeyShare::kSerializedBytes);
    }
    transport.send_keys_bytes(payload);
    pool.push(std::move(mine));
}

void client_replenish(net::Transport& transport, KeyPool& pool, std::size_t count) {
    if (count == 0) return;
    const std::vector<std::uint8_t> payload = transport.recv_keys_bytes();
    require(payload.size() == count * ReluKeyShare::kSerializedBytes,
            "fss key batch: shipped key count does not match the plan-derived schedule");
    std::vector<ReluKeyShare> keys;
    keys.reserve(count);
    for (std::size_t off = 0; off < payload.size(); off += ReluKeyShare::kSerializedBytes)
        keys.push_back(ReluKeyShare::deserialize(payload.data() + off));
    pool.push(std::move(keys));
}

}  // namespace c2pi::fss
