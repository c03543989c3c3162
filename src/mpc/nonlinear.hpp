#pragma once

/// \file nonlinear.hpp
/// Secure non-linear layers over additive shares, with the two backends
/// the paper benchmarks:
///
///  * kGarbledCircuit — Delphi-style: the client garbles ReLU/Max circuits
///    (tables shipped in the offline phase), the server evaluates online
///    and ends up holding the freshly re-shared output.
///  * kOtMillionaire — Cheetah-style: DReLU via the radix-16 millionaire
///    protocol + OT multiplexer (see millionaire.hpp), online-only.
///  * kFss — function-secret-sharing comparisons (fss/compare.hpp):
///    DCF key pairs are dealt in the preprocessing phase into the pool
///    in PartyContext, so the online cost per ReLU batch is one masked-
///    value reconstruction round plus local DCF evaluations. A kFss
///    layer on a context with too few dealt keys throws c2pi::Error.
///
/// All backends expose the same share-in/share-out signature so the PI
/// engines stay backend-agnostic.

#include "mpc/millionaire.hpp"

namespace c2pi::mpc {

enum class NonlinearBackend { kGarbledCircuit, kOtMillionaire, kFss };

/// Batched secure ReLU.
[[nodiscard]] std::vector<Ring> secure_relu(PartyContext& ctx, std::span<const Ring> y_share,
                                            NonlinearBackend backend);

/// Secure MaxPool over an NCHW share tensor (kernel k, stride s, square,
/// non-overlapping as in the paper's models). Returns pooled shares.
[[nodiscard]] RingTensor secure_maxpool(PartyContext& ctx, const RingTensor& x_share,
                                        std::int64_t kernel, std::int64_t stride,
                                        NonlinearBackend backend);

/// Reveal additive shares to both parties (each sends its share).
[[nodiscard]] std::vector<Ring> reveal_shares(PartyContext& ctx, std::span<const Ring> share);

/// Reveal to one party only (`to_party` receives the plaintext, other
/// party gets an empty vector).
[[nodiscard]] std::vector<Ring> reveal_shares_to(PartyContext& ctx, std::span<const Ring> share,
                                                 int to_party);

}  // namespace c2pi::mpc
