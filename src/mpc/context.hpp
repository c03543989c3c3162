#pragma once

/// \file context.hpp
/// Per-party protocol state shared by every secure-layer protocol: the
/// transport endpoint, fixed-point format, BFV context (with the client's
/// secret key), local randomness, and both directions of IKNP OT
/// extension. Party 0 is always the server (model owner), party 1 the
/// client (input owner).

#include <memory>
#include <optional>

#include "crypto/ot.hpp"
#include "fss/key_pool.hpp"
#include "he/bfv.hpp"
#include "mpc/gc_cache.hpp"
#include "net/channel.hpp"

namespace c2pi::mpc {

inline constexpr int kServer = 0;
inline constexpr int kClient = 1;

class PartyContext {
public:
    /// `session_seed` must be shared by both parties (it seeds the base-OT
    /// dealer); per-party secret randomness is derived from party id.
    PartyContext(net::Transport& transport, const FixedPointFormat& fmt,
                 const he::BfvContext& bfv, const crypto::Block128& session_seed)
        : transport_(&transport),
          fmt_(fmt),
          bfv_(&bfv),
          prg_(crypto::Block128{session_seed.lo ^ 0x5EC4E7ULL * (transport.party_id() + 1),
                                session_seed.hi ^ 0x9D0FULL},
               /*nonce=*/static_cast<std::uint64_t>(transport.party_id()) + 100),
          share_prg_(crypto::Block128{session_seed.lo ^ 0x5EC4E7ULL * (transport.party_id() + 1),
                                      session_seed.hi ^ 0x9D0FULL},
                     /*nonce=*/static_cast<std::uint64_t>(transport.party_id()) + 200) {
        // Two base-OT setups, one per sender direction. Both parties derive
        // them deterministically from the session seed, standing in for
        // Naor-Pinkas public-key base OTs (so anyone holding the seed can
        // rebuild them); the session layer sends a setup message of the
        // replaced Naor-Pinkas size in their place.
        const auto setup_a = crypto::dealer_base_ots(
            crypto::Block128{session_seed.lo ^ 0xA, session_seed.hi});
        const auto setup_b = crypto::dealer_base_ots(
            crypto::Block128{session_seed.lo ^ 0xB, session_seed.hi});
        if (transport.party_id() == kServer) {
            ot_sender_.emplace(setup_a.sender);
            ot_receiver_.emplace(setup_b.receiver);
        } else {
            ot_receiver_.emplace(setup_a.receiver);
            ot_sender_.emplace(setup_b.sender);
        }
    }

    [[nodiscard]] int party() const { return transport_->party_id(); }
    [[nodiscard]] bool is_server() const { return party() == kServer; }
    [[nodiscard]] net::Transport& transport() { return *transport_; }
    [[nodiscard]] const FixedPointFormat& fmt() const { return fmt_; }
    [[nodiscard]] const he::BfvContext& bfv() const { return *bfv_; }
    /// The model's compute pool (the BFV context's), shared by the HE and
    /// FSS loops; null runs them serially.
    [[nodiscard]] const core::ThreadPool* threads() const { return bfv_->thread_pool(); }
    [[nodiscard]] crypto::ChaCha20Prg& prg() { return prg_; }

    /// Dedicated stream for randomness that determines SHARE VALUES:
    /// the HE linear layers' output masks (drawn up front in channel or
    /// block order) and encryption noise, and the session layer's
    /// canonical post-nonlinear resharing. Kept separate from prg()
    /// (protocol-internal randomness: garbling, OT offsets, FSS key
    /// material) so its state depends only on the layer plan,
    /// never on which nonlinear backend ran in between. Local share
    /// truncation makes reconstructed values share-dependent, so this
    /// separation is the invariant behind bit-identical logits across
    /// nonlinear backends (fss_test.cpp pins it).
    [[nodiscard]] crypto::ChaCha20Prg& share_prg() { return share_prg_; }

    /// OT endpoint where this party plays extension sender.
    [[nodiscard]] crypto::IknpSender& ot_sender() { return *ot_sender_; }
    /// OT endpoint where this party plays extension receiver.
    [[nodiscard]] crypto::IknpReceiver& ot_receiver() { return *ot_receiver_; }

    /// The client's BFV secret key (client only).
    void set_client_key(he::SecretKey key) { client_key_ = std::move(key); }
    [[nodiscard]] const he::SecretKey& client_key() const {
        require(client_key_.has_value(), "client key not set on this party");
        return *client_key_;
    }

    /// This party's preprocessed FSS ReLU material (kFss backend), dealt
    /// once per session before the layer walk. Per-session by necessity:
    /// the keys pair with the peer's halves shipped over THIS connection,
    /// so sharing a pool across sessions would mismatch key halves.
    [[nodiscard]] fss::KeyPool& fss_pool() { return fss_pool_; }

    /// GC circuit cache for secure_maxpool. Sessions point this at their
    /// compiled model's cache (set_gc_cache) so concurrent sessions of
    /// different models never contend; contexts without a model (unit
    /// tests, benches) fall back to a private owned instance.
    void set_gc_cache(GcCircuitCache* cache) { gc_cache_ = cache; }
    [[nodiscard]] GcCircuitCache& gc_cache() {
        return gc_cache_ != nullptr ? *gc_cache_ : owned_gc_cache_;
    }

    /// Per-session scratch payload buffers for ciphertext (de)serialization:
    /// the HE linear layers move many same-sized multi-megabyte messages,
    /// so the send path stages payloads here (one allocation per session)
    /// and the recv path hands this buffer to Transport::recv_bytes_into
    /// (TcpTransport refills it in place; the in-process queue hands over
    /// its own message vector, which is already allocation-optimal for a
    /// by-value handoff). Only the session's protocol thread may touch them.
    [[nodiscard]] std::vector<std::uint8_t>& send_scratch() { return send_scratch_; }
    [[nodiscard]] std::vector<std::uint8_t>& recv_scratch() { return recv_scratch_; }
    /// Second recv scratch for protocols holding TWO payloads live at
    /// once (the GC evaluator keeps the garbled tables while the label
    /// transfer reuses recv_scratch()). Same single-thread rule.
    [[nodiscard]] std::vector<std::uint8_t>& aux_recv_scratch() { return aux_recv_scratch_; }

    /// Every context streams its HE responses (mpc/linear.cpp), so only
    /// `true` is accepted; `false` throws before anything is sent. Kept
    /// only because servebench/serving/replay.hpp still calls it.
    void set_pipeline(bool enabled) {
        require(enabled, "PartyContext::set_pipeline(false): HE responses are always streamed");
    }

private:
    net::Transport* transport_;
    FixedPointFormat fmt_;
    const he::BfvContext* bfv_;
    crypto::ChaCha20Prg prg_;
    crypto::ChaCha20Prg share_prg_;
    std::optional<crypto::IknpSender> ot_sender_;
    std::optional<crypto::IknpReceiver> ot_receiver_;
    std::optional<he::SecretKey> client_key_;
    fss::KeyPool fss_pool_;
    GcCircuitCache* gc_cache_ = nullptr;
    GcCircuitCache owned_gc_cache_;
    std::vector<std::uint8_t> send_scratch_, recv_scratch_, aux_recv_scratch_;
};

}  // namespace c2pi::mpc
