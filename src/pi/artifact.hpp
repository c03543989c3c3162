#pragma once

/// \file artifact.hpp
/// The wire-shippable public half of a compiled model.
///
/// C2PI's deployment premise is asymmetric: the server owns the weights,
/// the client owns the input. Everything the *client* needs at protocol
/// time is public architecture and parameters — the crypto-layer plan,
/// the boundary position, the fixed-point format and the BFV/ring
/// geometry (exactly what plan.hpp says the client may learn). That
/// public half is `ModelArtifact`: a plain value with a versioned binary
/// codec, shipped by the server at session start (docs/PROTOCOL.md,
/// ARTIFACT frame) so a deployed client holds **zero model weights**.
///
/// `ClientModel` is the input owner's compile-once runtime over an
/// artifact: a BFV context plus encoder-only layer caches (no weight
/// NTTs, no weight memory). The server-only counterpart — weights, ring
/// encodings, NTT-form weight plaintexts — is `CompiledModel`
/// (compiled_model.hpp), which embeds the same artifact and is
/// constructed from it plus the trained model.

#include <memory>
#include <optional>
#include <span>

#include "he/bfv.hpp"
#include "mpc/gc_cache.hpp"
#include "pi/plan.hpp"

namespace c2pi::pi {

/// Public, serializable description of a compiled model's crypto prefix.
/// Contains no weights and nothing derived from weights; both parties
/// must agree on every field for a session to succeed.
struct ModelArtifact {
    /// Compile-time knobs that shape the artifact (the server-side
    /// options minus serving-only concerns like thread counts).
    struct Options {
        /// Per-sample input shape [C,H,W]; the plan is geometry-dependent.
        Shape input_chw;
        /// Last crypto operation; nullopt = full PI (all linear ops crypto).
        std::optional<nn::CutPoint> boundary;
        FixedPointFormat fmt{.frac_bits = 16};
        std::size_t he_ring_degree = 4096;
    };

    Shape input_chw;            ///< [C,H,W] per-sample input shape
    nn::CutPoint cut;           ///< resolved boundary (last crypto op)
    bool full_pi = false;       ///< no revealed clear tail
    /// Total linear ops of the model. Disclosing the clear-tail depth is
    /// deliberate and paper-consistent: the client already learns it from
    /// every PiResult (hidden_linear_ops).
    std::int64_t num_linear_ops = 0;
    FixedPointFormat fmt{.frac_bits = 16};
    std::size_t he_ring_degree = 4096;
    /// BFV parameters beyond the ring degree, serialized so the client
    /// reconstructs the exact he::BfvContext from the artifact alone.
    int he_limbs = 4;
    int he_noise_bound = 4;
    std::vector<LayerPlan> plan;  ///< crypto layers [0, flat cut index]

    /// Plan the crypto prefix of `model` under `options` and package the
    /// public half. Throws c2pi::Error on invalid options (bad fixed-point
    /// format, non-power-of-two ring degree, boundary past the last
    /// linear op, a boundary that a skip edge crosses) — validation
    /// happens here, at the API boundary.
    [[nodiscard]] static ModelArtifact build(const nn::Graph& model, const Options& options);

    /// Structural validation (no model required): shape chain consistency,
    /// parameter ranges, plan/boundary agreement. deserialize() runs this
    /// on every decoded artifact so a corrupt or hostile payload fails
    /// with a typed c2pi::Error instead of poisoning the protocol.
    void validate() const;

    /// Versioned binary codec (magic/version/length-checked; all integers
    /// little-endian; see docs/PROTOCOL.md §3 for the normative layout).
    /// serialize() is deterministic: equal artifacts produce identical
    /// bytes, so re-serializing a decoded artifact is byte-stable. There
    /// is one codec version (2): every plan entry carries its two edge
    /// indices, and deserialize() rejects any other version.
    [[nodiscard]] std::vector<std::uint8_t> serialize() const;

    /// Decode + validate. Throws c2pi::Error on bad magic, unsupported
    /// version, truncation, trailing bytes, or any validate() failure.
    [[nodiscard]] static ModelArtifact deserialize(std::span<const std::uint8_t> bytes);

    /// BFV context parameters encoded by this artifact.
    [[nodiscard]] he::BfvContext::Params bfv_params(
        const core::ThreadPool* pool = nullptr) const {
        return he::BfvContext::Params{.n = he_ring_degree,
                                      .limbs = he_limbs,
                                      .noise_bound = he_noise_bound,
                                      .pool = pool};
    }

    /// Shape of the boundary activation, per sample (no batch dim).
    [[nodiscard]] const Shape& boundary_shape() const { return plan.back().out_shape; }
    [[nodiscard]] std::int64_t crypto_linear_ops() const { return cut.linear_index; }
    [[nodiscard]] std::int64_t hidden_linear_ops() const {
        return num_linear_ops - cut.linear_index;
    }

    friend bool operator==(const ModelArtifact&, const ModelArtifact&) = default;
};

/// The input owner's compile-once runtime: a BFV context and encoder-only
/// layer caches built from a public artifact. Holds zero model weights —
/// a process linking only this type cannot leak what it never had.
/// Immutable after construction and const-shareable across sessions,
/// mirroring CompiledModel on the server side.
class ClientModel {
public:
    /// Compiles the client half from an artifact (typically received over
    /// the wire). `num_threads` parallelizes the client's HE hot loops:
    /// 0 = auto (C2PI_THREADS / hardware_concurrency), 1 = serial. Any
    /// value is transcript-preserving. Throws c2pi::Error if the artifact
    /// fails validate().
    explicit ClientModel(ModelArtifact artifact, int num_threads = 0);

    ClientModel(const ClientModel&) = delete;
    ClientModel& operator=(const ClientModel&) = delete;

    [[nodiscard]] const ModelArtifact& artifact() const { return artifact_; }
    [[nodiscard]] const he::BfvContext& bfv() const { return bfv_; }
    /// Encoder layout per crypto layer; w_ntt of every cache is empty.
    [[nodiscard]] const std::vector<LayerCache>& layer_caches() const { return caches_; }
    /// Resolved thread count (after auto-detection).
    [[nodiscard]] int num_threads() const;

    /// GC max-circuit cache shared by this client's sessions, mirroring
    /// CompiledModel::gc_cache() on the server side.
    [[nodiscard]] mpc::GcCircuitCache& gc_cache() const { return gc_cache_; }

private:
    ModelArtifact artifact_;
    std::unique_ptr<core::ThreadPool> pool_;  ///< null when running serially
    he::BfvContext bfv_;                      ///< borrows pool_
    std::vector<LayerCache> caches_;          ///< borrows bfv_; encoders only
    mutable mpc::GcCircuitCache gc_cache_;
};

}  // namespace c2pi::pi
