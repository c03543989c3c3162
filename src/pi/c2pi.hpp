#pragma once

/// \file c2pi.hpp
/// The top-level C2PI facade (paper Fig. 2): the server (a) searches for
/// the crypto-clear boundary with Algorithm 1 + DINA, then (b) compiles
/// the model ONCE for that boundary into an immutable `CompiledModel`,
/// and (c) serves any number of private inferences against it — single
/// requests through `run_private_inference`, batches through
/// `run_batch` (concurrent in-process sessions, one per request). This
/// header wires boundary search and the serve-many PI API into one
/// object; see docs/API.md for the underlying compile-once flow.

#include "pi/boundary.hpp"
#include "pi/serving_pool.hpp"

namespace c2pi::pi {

struct C2piOptions {
    PiBackend backend = PiBackend::kCheetah;
    BoundaryConfig boundary;  ///< sigma / delta / lambda of Algorithm 1
    FixedPointFormat fmt{.frac_bits = 16};
    std::size_t he_ring_degree = 4096;
    std::uint64_t seed = kDefaultSeed;
    /// Nonlinear backend override (nullopt = the family's native choice;
    /// see SessionConfig::nonlinear).
    std::optional<mpc::NonlinearBackend> nonlinear;
};

/// A configured crypto-clear private inference system: one boundary
/// search + one compilation, then serve-many.
class C2piSystem {
public:
    /// Server-side setup: run Algorithm 1 over the given IDPA's probe
    /// (idpa_probe), then compile the model once for the discovered
    /// boundary. The input shape is taken from the dataset's samples.
    C2piSystem(nn::Graph& model, const data::SyntheticImageDataset& dataset,
               const attack::IdpaFactory& make_attack, const C2piOptions& options);

    /// One private inference; see run_private_inference.
    [[nodiscard]] PiResult infer(const Tensor& input) const {
        return run_private_inference(compiled_, config_, input);
    }

    /// Batched private inference: each request runs as its own session
    /// (crypto layers, then its clear tail) on one ServingPool; see
    /// run_batch.
    [[nodiscard]] BatchResult infer_batch(std::span<const Tensor> inputs) const {
        return run_batch(compiled_, config_, inputs);
    }

    [[nodiscard]] const BoundaryResult& boundary() const { return boundary_; }
    [[nodiscard]] const CompiledModel& compiled() const { return compiled_; }

private:
    BoundaryResult boundary_;
    CompiledModel compiled_;
    SessionConfig config_;
};

}  // namespace c2pi::pi
