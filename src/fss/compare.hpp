#pragma once

/// \file compare.hpp
/// FSS ReLU material: interval-containment comparison built from one DCF
/// per comparison, plus the dealer/client shipment protocol.
///
/// The kFss backend computes ReLU(y) on an additively shared y with one
/// reconstruction round and local DCF evaluations. Per comparison the
/// dealer samples a random mask r and builds:
///
///   - K   = DCF key pair for alpha = r + 2^63 with payload (1, r)
///   - additive shares of r
///
/// Online, the parties reveal z = y + r (each sends its share of
/// y + r in the same round as the existing reveal_shares). With the
/// public bit z_hi = z >> 63, each party p evaluates its half of K at
/// two shifted points and computes locally
///
///   (u_p, v_p) = Eval(K, p, z) - Eval(K, p, z + 2^63) + z_hi * (p == 0, r_p)
///   out_p      = z * u_p - v_p
///
/// which sums to 1{z - r in [0, 2^63)} * (z - r) = ReLU(y), matching
/// the signed drelu semantics b = 1{y >= 0}. This is the interval-
/// containment gate of Boyle et al. (EUROCRYPT 2021): one key evaluated
/// at two points. The z_hi term needs only the share of r, since the
/// constant 1 is party 0's. Keys are input-independent, so generation
/// and shipment hoist into the preprocessing phase (key_pool.hpp holds
/// the session's batch; one KEYS frame carries the client halves).
///
/// The session's dealer is the server (docs/PROTOCOL.md §4): it deals
/// both halves, so it knows every mask r and can read y from each
/// opened z = y + r. Dealing and evaluation run through the DCF's tiled
/// level-synchronous walk (dcf.hpp): a dealing tile holds kDcfTile
/// comparisons, one tree each, and an evaluation tile kDcfTile / 2
/// comparisons, one tree walked at both points. Tiles are independent,
/// so dealing, decoding and evaluation spread them over the session's
/// thread pool (mpc::PartyContext::threads()); the dealer draws every
/// random choice before any tile runs, so keys and outputs are the same
/// for every thread count, and a null pool is the serial schedule.

#include <cstdint>
#include <span>
#include <vector>

#include "fss/dcf.hpp"

namespace c2pi::core {
class ThreadPool;
}

namespace c2pi::net {
class Transport;
}

namespace c2pi::fss {

class KeyPool;

/// One party's material for one FSS ReLU comparison.
struct ReluKeyShare {
    Ring r_share = 0;  ///< additive share of the mask r
    DcfKey key;        ///< DCF at alpha = r + 2^63, payload (1, r)

    static constexpr std::size_t kSerializedBytes = 8 + DcfKey::kSerializedBytes;

    /// Record codec (r_share | key, all little-endian), kSerializedBytes
    /// each way.
    void serialize_into(std::uint8_t* out) const;
    [[nodiscard]] static ReluKeyShare deserialize(const std::uint8_t* in);
};

/// Both parties' halves of one comparison's material.
struct ReluKeyPair {
    ReluKeyShare server;  ///< party 0 half
    ReluKeyShare client;  ///< party 1 half
};

/// Dealer-side generation of one comparison's material. `prg` supplies
/// every random choice, drawn in this order: r, K's two root seeds
/// (party 0's, then party 1's), then party 0's share of r.
/// dealer_replenish draws the same stream comparison by comparison
/// before it deals any key, so its keys equal repeated calls of this
/// function.
[[nodiscard]] ReluKeyPair gen_relu_material(crypto::ChaCha20Prg& prg);

/// Local online evaluation of a batch: given this party's key shares and
/// the reconstructed masked values z[i] = y[i] + r[i], out[i] is this
/// party's additive share of ReLU(y[i]). Each element's key is walked at
/// z[i] and z[i] + 2^63 in one tiled DCF walk; the tiles run on
/// `threads` (serially when null) and write disjoint outputs.
void eval_relu_batch(std::span<const ReluKeyShare> keys, int party, std::span<const Ring> z,
                     std::span<Ring> out, const core::ThreadPool* threads = nullptr);

/// eval_relu_batch for one element.
[[nodiscard]] Ring eval_relu(const ReluKeyShare& key, int party, Ring z);

/// Dealer side of the session's preprocessing: generate `count`
/// comparisons, ship the client halves in one KEYS frame (count records
/// back to back, serialize_into each), push the server halves into
/// `pool`. Every comparison's randomness is drawn first, in order; then
/// the tiles are dealt on `threads` (serially when null). Client halves
/// are encoded straight into the frame payload and server halves
/// constructed in place in the KeyBatch the pool keeps; neither buffer
/// is zero-filled first, and dealing holds one copy of each half. No-op
/// when count == 0 (no frame on the wire, so the client must compute the
/// same count and skip its recv symmetrically).
void dealer_replenish(net::Transport& transport, crypto::ChaCha20Prg& prg, KeyPool& pool,
                      std::size_t count, const core::ThreadPool* threads = nullptr);

/// Client side: receive one KEYS frame and pool the shipped halves,
/// decoding each record once, into its slot of a KeyBatch that is not
/// zero-filled first, tile by tile on `threads` (serially when null).
/// Throws c2pi::Error, pooling nothing, unless the payload is exactly
/// `count` records (the two sides must agree on the plan-derived
/// schedule); the size is checked before any record is decoded. No-op
/// when count == 0.
void client_replenish(net::Transport& transport, KeyPool& pool, std::size_t count,
                      const core::ThreadPool* threads = nullptr);

}  // namespace c2pi::fss
