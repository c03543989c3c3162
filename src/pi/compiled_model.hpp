#pragma once

/// \file compiled_model.hpp
/// The server-only compile-once half of the serve-many PI API.
///
/// A `CompiledModel` embeds the public `pi::ModelArtifact` (architecture,
/// boundary, formats — everything the client may learn, artifact.hpp) and
/// adds the server secrets derived from the trained weights: ring-encoded
/// weights/biases and the precomputed NTT-form weight plaintexts they
/// feed (`layer_caches()`). It is built exactly once per (model,
/// boundary, format, HE parameters) and is immutable afterwards, so a
/// single `const CompiledModel` can back any number of concurrent
/// `ServerSession`s (session.hpp), e.g. those of a `pi::ServingPool`
/// (serving_pool.hpp). The input owner's counterpart is `pi::ClientModel`,
/// compiled from the artifact alone — holding a CompiledModel means
/// holding weights, and only the model owner ever does.
///
/// All option validation happens here, at the API boundary: bad
/// fixed-point formats, non-power-of-two HE ring degrees, and boundaries
/// past the last linear op throw `c2pi::Error` immediately instead of
/// failing deep inside the protocol.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "he/bfv.hpp"
#include "mpc/gc_cache.hpp"
#include "net/cost_model.hpp"
#include "pi/artifact.hpp"

namespace c2pi::pi {

/// Protocol family used for the crypto layers.
///  * kCheetah — Huang et al. 2022 style: HE linear layers + OT millionaire
///    non-linear layers, online-only.
///  * kDelphi — Mishra et al. 2020 style: HE linear work and garbled-circuit
///    tables charged to an input-independent offline phase.
enum class PiBackend { kDelphi, kCheetah };

[[nodiscard]] inline const char* backend_name(PiBackend b) {
    return b == PiBackend::kDelphi ? "Delphi" : "Cheetah";
}

/// Per-inference traffic/time accounting (aggregated per phase). The
/// preprocessing bucket holds the kFss key shipment (KEYS frames), kept
/// apart from both the offline HE traffic and the online nonlinear bytes
/// the paper's tables compare.
struct PiStats {
    std::uint64_t offline_bytes = 0;
    std::uint64_t online_bytes = 0;
    std::uint64_t preprocess_bytes = 0;
    std::uint64_t offline_flights = 0;
    std::uint64_t online_flights = 0;
    std::uint64_t preprocess_flights = 0;
    double wall_seconds = 0.0;
    /// Seconds this party spent blocked on the network (recv waits, send
    /// backpressure and flushes, the KEYS write), split per phase. Filled by
    /// stats_from_transport; compute time for a phase is its wall share
    /// minus these. Deliberately NOT part of the byte/flight accounting
    /// that parity tests compare — timing is never deterministic.
    double offline_wait_seconds = 0.0;
    double online_wait_seconds = 0.0;
    double preprocess_wait_seconds = 0.0;

    [[nodiscard]] std::uint64_t total_bytes() const {
        return offline_bytes + online_bytes + preprocess_bytes;
    }
    [[nodiscard]] std::uint64_t total_flights() const {
        return offline_flights + online_flights + preprocess_flights;
    }
    [[nodiscard]] double total_wait_seconds() const {
        return offline_wait_seconds + online_wait_seconds + preprocess_wait_seconds;
    }

    /// End-to-end latency under a network model (DESIGN.md §4 subst. 5).
    [[nodiscard]] double latency_seconds(const net::NetworkModel& net) const {
        return net.latency_seconds(wall_seconds, total_bytes(), total_flights());
    }
};

/// Result of one private inference as seen by the client.
struct PiResult {
    Tensor logits;  ///< client's view of the inference output [1, classes]
    PiStats stats;
    std::int64_t crypto_linear_ops = 0;  ///< linear ops run under MPC
    std::int64_t hidden_linear_ops = 0;  ///< clear-layer ops hidden from the client
};

/// Immutable, setup-once server artifact. Construction runs every
/// input-independent step of the protocol setup (layer planning, weight
/// ring-encoding, BFV/NTT precompute); serving never re-runs them.
class CompiledModel {
public:
    struct Options {
        /// Per-sample input shape [C,H,W]; the plan is geometry-dependent.
        Shape input_chw;
        /// Last crypto operation; nullopt = full PI (all linear ops crypto).
        std::optional<nn::CutPoint> boundary;
        FixedPointFormat fmt{.frac_bits = 16};
        std::size_t he_ring_degree = 4096;
        /// Threads for the HE hot loops (per-output-channel responses,
        /// RNS limb transforms) of every session served from this
        /// artifact. 0 = auto: env C2PI_THREADS if set, else
        /// hardware_concurrency. 1 = the exact serial seed schedule.
        /// Any value produces bit-identical transcripts and logits.
        int num_threads = 0;
    };

    /// Compiles the model: builds the public ModelArtifact for these
    /// options, then the server secrets from the weights. The model is
    /// borrowed const and must outlive the CompiledModel; its weights
    /// must not change while sessions use this artifact. Throws
    /// c2pi::Error on invalid options.
    CompiledModel(const nn::Graph& model, Options options);

    CompiledModel(const CompiledModel&) = delete;
    CompiledModel& operator=(const CompiledModel&) = delete;

    [[nodiscard]] const nn::Graph& model() const { return *model_; }
    /// The public half: ship this (serialized) to clients at session
    /// start; it contains no weights and nothing derived from them.
    [[nodiscard]] const ModelArtifact& artifact() const { return artifact_; }
    [[nodiscard]] const FixedPointFormat& fmt() const { return artifact_.fmt; }
    [[nodiscard]] const he::BfvContext& bfv() const { return bfv_; }
    [[nodiscard]] const Shape& input_shape() const { return artifact_.input_chw; }

    /// Crypto-layer plan (flat layers [0, crypto_end())); architecture only.
    [[nodiscard]] const std::vector<LayerPlan>& plan() const { return artifact_.plan; }
    /// Per-layer HE precompute: encoders + NTT-form weight plaintexts.
    /// Sessions serve straight from this — no weight NTT runs online.
    [[nodiscard]] const std::vector<LayerCache>& layer_caches() const { return layer_caches_; }
    /// Resolved thread count (Options::num_threads after auto-detection).
    [[nodiscard]] int num_threads() const;

    /// One-past-the-end flat layer index of the crypto prefix.
    [[nodiscard]] std::size_t crypto_end() const { return artifact_.plan.size(); }
    /// The resolved cut point (last linear op for full PI).
    [[nodiscard]] const nn::CutPoint& cut() const { return artifact_.cut; }
    [[nodiscard]] bool full_pi() const { return artifact_.full_pi; }
    [[nodiscard]] std::int64_t crypto_linear_ops() const { return artifact_.crypto_linear_ops(); }
    [[nodiscard]] std::int64_t hidden_linear_ops() const { return artifact_.hidden_linear_ops(); }

    /// Shape of the boundary activation, per sample (no batch dim).
    [[nodiscard]] const Shape& boundary_shape() const { return artifact_.boundary_shape(); }
    /// Boundary activation shape with a batch dimension prepended.
    [[nodiscard]] Shape batched_boundary_shape(std::int64_t batch) const;

    /// Run the revealed clear-layer tail as ONE plaintext pass over a
    /// [N, ...boundary_shape()] batch of boundary activations; returns
    /// [N, classes]. Const and thread-safe (uses the cache-free
    /// Graph::infer_range). Invalid for full-PI artifacts.
    [[nodiscard]] Tensor run_clear_tail(const Tensor& boundary_activations) const;

    /// Number of clear-tail passes executed so far (diagnostic; lets tests
    /// assert that every served request runs exactly one pass).
    [[nodiscard]] std::uint64_t clear_tail_passes() const {
        return tail_passes_.load(std::memory_order_relaxed);
    }

    /// GC max-circuit cache shared by every session served from this
    /// model (mpc/gc_cache.hpp): per-model rather than process-wide, so
    /// concurrent sessions of different models never contend. Mutable
    /// state with internal locking, like tail_passes_.
    [[nodiscard]] mpc::GcCircuitCache& gc_cache() const { return gc_cache_; }

private:
    const nn::Graph* model_;
    ModelArtifact artifact_;
    /// Initialized before server_data_ so an invalid num_threads fails at
    /// the API boundary, not after ring-encoding every weight.
    std::unique_ptr<core::ThreadPool> pool_;  ///< null when serving serially
    std::vector<ServerLayerData> server_data_;
    he::BfvContext bfv_;                      ///< borrows pool_
    std::vector<LayerCache> layer_caches_;    ///< borrows server_data_ + bfv_
    mutable std::atomic<std::uint64_t> tail_passes_{0};
    mutable mpc::GcCircuitCache gc_cache_;
};

}  // namespace c2pi::pi
