#pragma once

/// \file linear.hpp
/// HE-based secure linear layers over additive shares (the Cheetah linear
/// protocol; PiBackend::kDelphi runs the same protocol and only charges
/// its traffic to the offline phase).
///
/// Protocol: one body for conv and fully-connected layers, driven by the
/// layer's he::LinearLayout. The client packs its input share at the
/// layout's input slots and encrypts those polynomials; the server
/// multiplies them by its NTT-form weight plaintexts, folds a fresh
/// random mask -r into each output coefficient, mod-switches and sends
/// one response per range of outputs. The client decrypts and reads its
/// new share at the layout's output coefficients; the server's new share
/// is its own share's plain product plus the bias plus r. Outputs carry
/// fixed-point scale 2f and must be truncated by the caller.
///
/// The server runs over a layer cache (`ConvLayerCache` /
/// `MatVecLayerCache`): every input-independent piece — encoder layout,
/// the NTT-form weight plaintexts and their Shoup companions — is
/// precomputed once (CompiledModel construction) and only the
/// input-dependent work runs per inference. The per-response ciphertexts
/// are computed in parallel over the cache's thread pool but SENT in
/// response order, so the wire transcript, the traffic
/// accounting and the client's view are bit-identical to the serial
/// path.

#include "he/encoding.hpp"
#include "mpc/context.hpp"
#include "mpc/ring_ops.hpp"

namespace c2pi::mpc {

/// What the linear protocol reads from a layer cache, whatever the
/// layer's kind. `weights` and `bias2f` (scale 2^2f, may be empty) are
/// borrowed views (the plain part of the server's own share still needs
/// the raw weights); the owner — CompiledModel's ServerLayerData — must
/// outlive the cache. A cache built without weights is the client's: its
/// layout only, no weight NTTs (a server handed one throws).
struct LinearLayerCache {
    LinearLayerCache(std::span<const Ring> weights, std::span<const Ring> bias2f)
        : weights(weights), bias2f(bias2f) {}

    [[nodiscard]] virtual const he::LinearLayout& layout() const = 0;
    /// The server's own share through the layer, exact in the ring, plus
    /// the bias: its output share before the mask.
    [[nodiscard]] virtual std::vector<Ring> plain_part(std::span<const Ring> x_share) const = 0;

    std::span<const Ring> weights;
    std::span<const Ring> bias2f;
    std::vector<he::PlainNtt> w_ntt;  ///< [response * layout().inputs + input]

protected:
    ~LinearLayerCache() = default;  // owners hold the concrete cache types
};

/// Conv cache: one weight plaintext per (output channel, input group).
/// `weights` are ring-encoded [O,C,k,k]; the bias is per output channel.
struct ConvLayerCache final : LinearLayerCache {
    ConvLayerCache(const he::BfvContext& bfv, const he::ConvGeometry& geo,
                   std::span<const Ring> weights, std::span<const Ring> bias2f);

    [[nodiscard]] const he::LinearLayout& layout() const override { return enc.layout(); }
    [[nodiscard]] std::vector<Ring> plain_part(std::span<const Ring> x_share) const override;

    he::ConvEncoder enc;
};

/// Fully-connected cache: one weight plaintext per output block. Weights
/// are [out,in] row-major; the bias is per output row.
struct MatVecLayerCache final : LinearLayerCache {
    MatVecLayerCache(const he::BfvContext& bfv, std::int64_t in, std::int64_t out,
                     std::span<const Ring> weights, std::span<const Ring> bias2f);

    [[nodiscard]] const he::LinearLayout& layout() const override { return enc.layout(); }
    [[nodiscard]] std::vector<Ring> plain_part(std::span<const Ring> x_share) const override;

    he::MatVecEncoder enc;
};

/// Server side of the protocol over a precomputed layer cache. `x_share`
/// is the server's input share; returns its output share.
[[nodiscard]] std::vector<Ring> he_linear_server(PartyContext& ctx, const LinearLayerCache& cache,
                                                 std::span<const Ring> x_share);

/// Client side; `x_share` is the client's input share. The layout is
/// public, so the client reuses the compiled artifact's instead of
/// rebuilding it per request.
[[nodiscard]] std::vector<Ring> he_linear_client(PartyContext& ctx,
                                                 const he::LinearLayout& layout,
                                                 std::span<const Ring> x_share);

/// Per-kind entry points: conv shares are [C,H,W] in and [O,OH,OW] out
/// (flattened), fully-connected shares [in] and [out].
[[nodiscard]] inline std::vector<Ring> he_conv_server(PartyContext& ctx,
                                                      const ConvLayerCache& cache,
                                                      std::span<const Ring> x_share) {
    return he_linear_server(ctx, cache, x_share);
}
[[nodiscard]] inline std::vector<Ring> he_conv_client(PartyContext& ctx, const he::ConvEncoder& enc,
                                                      std::span<const Ring> x_share) {
    return he_linear_client(ctx, enc.layout(), x_share);
}
[[nodiscard]] inline std::vector<Ring> he_matvec_server(PartyContext& ctx,
                                                        const MatVecLayerCache& cache,
                                                        std::span<const Ring> x_share) {
    return he_linear_server(ctx, cache, x_share);
}
[[nodiscard]] inline std::vector<Ring> he_matvec_client(PartyContext& ctx,
                                                        const he::MatVecEncoder& enc,
                                                        std::span<const Ring> x_share) {
    return he_linear_client(ctx, enc.layout(), x_share);
}

}  // namespace c2pi::mpc
