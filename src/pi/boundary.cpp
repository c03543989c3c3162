#include "pi/boundary.hpp"

#include "nn/trainer.hpp"

namespace c2pi::pi {

std::vector<nn::CutPoint> candidate_cuts(const nn::Graph& model, bool include_half_points) {
    const auto linear_positions = model.linear_op_indices();
    std::vector<nn::CutPoint> cuts;
    const std::int64_t n = static_cast<std::int64_t>(linear_positions.size());
    for (std::int64_t i = 1; i < n; ++i) {  // exclude the classifier op
        const std::size_t flat = linear_positions[static_cast<std::size_t>(i - 1)];
        // On a DAG only articulation points separate prefix from tail: a
        // cut a skip edge crosses has no single boundary activation, so
        // it is not sweepable (on a chain every index qualifies).
        if (model.is_articulation(flat))
            cuts.push_back({.linear_index = i, .after_relu = false});
        if (include_half_points && flat + 1 < model.size() && !model.is_add(flat + 1) &&
            model.layer(flat + 1).kind() == nn::LayerKind::kRelu &&
            model.input0(flat + 1) == static_cast<std::int64_t>(flat) &&
            model.is_articulation(flat + 1)) {
            cuts.push_back({.linear_index = i, .after_relu = true});
        }
    }
    return cuts;
}

SsimProbeFn idpa_probe(nn::Graph& model, const data::SyntheticImageDataset& dataset,
                       attack::IdpaFactory make_attack, const BoundaryConfig& config) {
    return [&model, &dataset, make_attack = std::move(make_attack),
            samples = config.attack_eval_samples, lambda = config.noise_lambda,
            seed = config.seed ^ 0x517](const nn::CutPoint& cut) {
        const auto attack = make_attack();
        return attack::evaluate_idpa(*attack, model, cut, dataset, samples, lambda, seed).avg_ssim;
    };
}

BoundaryResult search_boundary(nn::Graph& model, const data::SyntheticImageDataset& dataset,
                               const SsimProbeFn& probe, const BoundaryConfig& config) {
    const auto cuts = candidate_cuts(model, config.include_half_points);
    require(!cuts.empty(), "model has no sweepable cut points");

    BoundaryResult result;
    const std::span<const data::Sample> acc_subset(
        dataset.test().data(), std::min(config.accuracy_samples, dataset.test().size()));
    result.baseline_accuracy = nn::evaluate_accuracy(model, acc_subset);

    // ---- Phase 1: sweep from the tail until the IDPA first succeeds ----
    std::int64_t first_success = -1;  // index where avg_ssim >= sigma
    for (std::int64_t idx = static_cast<std::int64_t>(cuts.size()) - 1; idx >= 0; --idx) {
        const auto& cut = cuts[static_cast<std::size_t>(idx)];
        const double ssim = probe(cut);
        result.ssim_sweep.push_back({cut, ssim});
        if (ssim >= config.ssim_threshold) {
            first_success = idx;
            break;
        }
    }
    // Potential boundary: the cut right after the first successful attack
    // (or the earliest cut if the attack never succeeds).
    std::int64_t boundary_idx =
        first_success < 0 ? 0
                          : std::min<std::int64_t>(first_success + 1,
                                                   static_cast<std::int64_t>(cuts.size()) - 1);

    // ---- Phase 2: push the boundary later until accuracy is acceptable ----
    // The last probe is the boundary: the first cut within the drop budget,
    // or the last sweepable cut (conservative) when none is.
    const double target = result.baseline_accuracy - config.max_accuracy_drop;
    for (; boundary_idx < static_cast<std::int64_t>(cuts.size()); ++boundary_idx) {
        const auto& cut = cuts[static_cast<std::size_t>(boundary_idx)];
        const double acc = nn::evaluate_accuracy_with_noise_at(
            model, cut, acc_subset, config.noise_lambda, config.seed ^ 0xACC);
        result.accuracy_sweep.push_back({cut, acc});
        if (acc >= target) break;
    }
    result.boundary = result.accuracy_sweep.back().cut;
    result.boundary_accuracy = result.accuracy_sweep.back().noised_accuracy;
    return result;
}

}  // namespace c2pi::pi
