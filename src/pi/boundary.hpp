#pragma once

/// \file boundary.hpp
/// Algorithm 1 of the paper: crypto-clear boundary search.
///
/// Phase 1 sweeps cut points from the tail toward the head, asking an
/// SSIM probe how well the IDPA recovers inputs at each, until the attack
/// first *succeeds* (average SSIM >= sigma); the potential boundary is
/// the cut just after that. Phase 2 verifies the noised-input accuracy at
/// the boundary and pushes it later until the drop from baseline is at
/// most delta (the paper uses 2.5%, matching SNL/SENet conventions).

#include "attack/idpa.hpp"

namespace c2pi::pi {

struct BoundaryConfig {
    double ssim_threshold = 0.3;       ///< sigma — IDPA failure threshold
    double max_accuracy_drop = 0.025;  ///< delta — tolerated absolute accuracy drop
    float noise_lambda = 0.1F;         ///< lambda — client share-noise magnitude
    std::size_t attack_eval_samples = 24;
    std::size_t accuracy_samples = 192;
    bool include_half_points = true;   ///< sweep ".5" (post-ReLU) cuts too
    std::uint64_t seed = kDefaultSeed;
};

struct SsimProbe {
    nn::CutPoint cut;
    double avg_ssim = 0.0;
};

struct AccuracyProbe {
    nn::CutPoint cut;
    double noised_accuracy = 0.0;
};

struct BoundaryResult {
    nn::CutPoint boundary;
    double baseline_accuracy = 0.0;
    double boundary_accuracy = 0.0;
    std::vector<SsimProbe> ssim_sweep;       ///< phase-1 probes, tail to head
    std::vector<AccuracyProbe> accuracy_sweep;  ///< phase-2 probes
};

/// Phase 1's measurement: the average SSIM of the inputs an IDPA recovers
/// from the activation at a cut. search_boundary asks each cut at most
/// once, so a probe that is costly to compute may memoize across searches.
using SsimProbeFn = std::function<double(const nn::CutPoint&)>;

/// All sweepable cut points of a model: linear ops 1 .. n-1, optionally
/// with their ".5" (post-ReLU) twins, in ascending order. The final
/// classifier op is excluded (cutting there is full PI).
[[nodiscard]] std::vector<nn::CutPoint> candidate_cuts(const nn::Graph& model,
                                                       bool include_half_points);

/// The IDPA probe: per cut, a fresh attack from `make_attack` (the paper
/// uses DINA for the final system; MLA/EINA for comparison) is fitted and
/// scored on `config.attack_eval_samples` test images under share noise
/// `config.noise_lambda`. Borrows `model` and `dataset`.
[[nodiscard]] SsimProbeFn idpa_probe(nn::Graph& model, const data::SyntheticImageDataset& dataset,
                                     attack::IdpaFactory make_attack,
                                     const BoundaryConfig& config);

/// Run Algorithm 1 over `probe`; phase 2 measures noised accuracy on the
/// first `config.accuracy_samples` test images of `dataset`.
[[nodiscard]] BoundaryResult search_boundary(nn::Graph& model,
                                             const data::SyntheticImageDataset& dataset,
                                             const SsimProbeFn& probe,
                                             const BoundaryConfig& config);

}  // namespace c2pi::pi
