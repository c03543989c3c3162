#pragma once

/// \file common.hpp
/// Shared infrastructure for the paper-reproduction benches: experiment
/// scale (env C2PI_FAST=1 shrinks everything for smoke runs), dataset and
/// model factories with on-disk caching of trained weights, attack
/// factories, and result-table printing.
///
/// Scale note (DESIGN.md §4, substitutions 2 & 6): models keep the paper's
/// exact topology at width multiplier 0.125 on 32x32 synthetic inputs;
/// attack/training budgets are sized for a 2-core CPU box.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "attack/inverse.hpp"
#include "attack/mla.hpp"
#include "nn/models.hpp"
#include "nn/zoo.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "pi/c2pi.hpp"

namespace c2pi::bench {

/// Trained weights and DINA SSIM probes are memoized here, relative to
/// the working directory (run the benches from the repo root).
inline constexpr const char* kCacheDir = "bench_cache";

struct Scale {
    // dataset / model
    std::int64_t image_size = 32;
    float width_multiplier = 0.125F;
    std::size_t train_size = 640;
    std::size_t test_size = 256;
    int train_epochs = 14;
    // attacks
    int attack_epochs = 3;
    std::size_t attack_train_samples = 96;
    std::size_t attack_eval_samples = 6;
    int mla_iterations = 80;
    // engines
    std::size_t he_ring_degree = 4096;
    std::size_t accuracy_samples = 192;
};

[[nodiscard]] inline Scale scale() {
    Scale s;
    if (const char* fast = std::getenv("C2PI_FAST"); fast != nullptr && fast[0] == '1') {
        s.train_size = 256;
        s.test_size = 96;
        s.train_epochs = 4;
        s.attack_epochs = 2;
        s.attack_train_samples = 48;
        s.attack_eval_samples = 4;
        s.mla_iterations = 60;
        s.he_ring_degree = 2048;
        s.accuracy_samples = 64;
    }
    return s;
}

[[nodiscard]] inline data::SyntheticImageDataset make_dataset(const std::string& kind) {
    const Scale s = scale();
    auto cfg = kind == "CIFAR-100" ? data::DatasetConfig::cifar100_like()
                                   : data::DatasetConfig::cifar10_like();
    cfg.image_size = s.image_size;
    cfg.train_size = static_cast<std::int64_t>(s.train_size);
    cfg.test_size = static_cast<std::int64_t>(s.test_size);
    return data::SyntheticImageDataset(cfg);
}

/// Train (or load from bench_cache/) one model on one dataset; reports
/// test accuracy through `test_accuracy` when non-null.
[[nodiscard]] inline nn::Graph load_or_train(const std::string& model_name,
                                                  const std::string& dataset_kind,
                                                  const data::SyntheticImageDataset& dataset,
                                                  double* test_accuracy = nullptr) {
    const Scale s = scale();
    nn::ModelConfig mcfg;
    mcfg.num_classes = dataset.config().num_classes;
    mcfg.input_hw = s.image_size;
    mcfg.width_multiplier = s.width_multiplier;
    nn::Graph model = nn::zoo::build(model_name, mcfg);

    std::filesystem::create_directories(kCacheDir);
    char path[256];
    std::snprintf(path, sizeof(path), "%s/%s_%s_w%.3f_hw%lld_e%d.bin", kCacheDir,
                  model_name.c_str(), dataset_kind.c_str(), s.width_multiplier,
                  static_cast<long long>(s.image_size), s.train_epochs);
    if (!nn::try_load_parameters(model, path)) {
        std::printf("[setup] training %s on %s ...\n", model_name.c_str(), dataset_kind.c_str());
        std::fflush(stdout);
        nn::TrainConfig tcfg;
        tcfg.batch_size = 32;
        // Per-family recipes: plain VGG without BN is sensitive to the
        // lr/momentum pairing, and the 19-layer variant needs a gentler
        // rate with a longer schedule to start descending.
        tcfg.epochs = model_name == "vgg19" ? 2 * s.train_epochs + 8 : s.train_epochs;
        tcfg.lr = model_name == "vgg19" ? 0.005F : 0.01F;
        tcfg.momentum = model_name == "alexnet" ? 0.9F : 0.95F;
        (void)nn::train_classifier(model, dataset, tcfg);
        nn::save_parameters(model, path);
    }
    if (test_accuracy != nullptr) *test_accuracy = nn::evaluate_accuracy(model, dataset.test());
    return model;
}

/// IDPA factory by paper name: "MLA", "INA", "EINA", "DINA" (= DINA-c1)
/// or "DINA-c2" (uniform coefficients, Fig. 5 ablation).
[[nodiscard]] inline attack::IdpaFactory make_attack_factory(const std::string& name) {
    const Scale s = scale();
    if (name == "MLA") {
        return [s] {
            return std::make_unique<attack::MlaAttack>(
                attack::MlaConfig{.iterations = s.mla_iterations, .lr = 0.06F, .seed = 11});
        };
    }
    attack::InverseConfig cfg;
    cfg.epochs = s.attack_epochs;
    cfg.train_samples = s.attack_train_samples;
    cfg.batch_size = 8;
    if (name == "DINA-c2") {
        cfg.alpha1 = 1.0F;
        cfg.alpha_growth = 1.0F;
    }
    const attack::InverseKind kind = name == "INA" ? attack::InverseKind::kPlain
                                   : name == "EINA" ? attack::InverseKind::kResidual
                                                    : attack::InverseKind::kDistilled;
    return [kind, cfg] { return std::make_unique<attack::InverseNetAttack>(kind, cfg); };
}

/// Integer conv-id cut points 1..n-1 (the x-axis of Figs. 1/4/5/6/7/8).
[[nodiscard]] inline std::vector<nn::CutPoint> conv_id_cuts(const nn::Graph& model) {
    std::vector<nn::CutPoint> cuts;
    for (std::int64_t i = 1; i < model.num_linear_ops(); ++i)
        cuts.push_back({.linear_index = i, .after_relu = false});
    return cuts;
}

/// Memoized DINA evaluation: Algorithm-1-style sweeps appear in Fig. 8,
/// Table I and Table II; the underlying (model, dataset, cut, lambda)
/// SSIM values are deterministic, so they are cached in bench_cache/ and
/// shared across bench binaries.
[[nodiscard]] inline double cached_dina_ssim(const std::string& model_name,
                                             const std::string& ds_kind, nn::Graph& model,
                                             const data::SyntheticImageDataset& dataset,
                                             const nn::CutPoint& cut, float lambda) {
    const Scale s = scale();
    char path[320];
    std::snprintf(path, sizeof(path), "%s/ssim_%s_%s_cut%.1f_l%.2f_e%d_n%zu_v%zu.txt",
                  kCacheDir, model_name.c_str(), ds_kind.c_str(), cut.as_decimal(), lambda,
                  s.attack_epochs, s.attack_train_samples, s.attack_eval_samples);
    if (FILE* f = std::fopen(path, "r"); f != nullptr) {
        double value = 0.0;
        const int got = std::fscanf(f, "%lf", &value);
        std::fclose(f);
        if (got == 1) return value;
    }
    auto attack = make_attack_factory("DINA")();
    const auto eval = attack::evaluate_idpa(*attack, model, cut, dataset,
                                            scale().attack_eval_samples, lambda,
                                            /*seed=*/101 + static_cast<std::size_t>(cut.linear_index));
    std::filesystem::create_directories(kCacheDir);
    if (FILE* f = std::fopen(path, "w"); f != nullptr) {
        std::fprintf(f, "%.6f\n", eval.avg_ssim);
        std::fclose(f);
    }
    return eval.avg_ssim;
}

/// Algorithm 1 over the cached DINA SSIM values, for several thresholds
/// at once (one tail-to-head sweep serves all sigmas). Returns one
/// BoundaryResult per sigma, in order.
[[nodiscard]] inline std::vector<pi::BoundaryResult> cached_boundary_search(
    const std::string& model_name, const std::string& ds_kind, nn::Graph& model,
    const data::SyntheticImageDataset& dataset, std::span<const double> sigmas, float lambda,
    double max_accuracy_drop, bool include_half_points) {
    const auto cuts = pi::candidate_cuts(model, include_half_points);
    const std::span<const data::Sample> subset(
        dataset.test().data(), std::min(scale().accuracy_samples, dataset.test().size()));
    const double baseline = nn::evaluate_accuracy(model, subset);
    const double sigma_max = *std::max_element(sigmas.begin(), sigmas.end());

    // Phase 1 (shared): sweep tail -> head until the strongest threshold
    // is met; record every probe.
    std::vector<pi::SsimProbe> sweep;
    for (std::int64_t idx = static_cast<std::int64_t>(cuts.size()) - 1; idx >= 0; --idx) {
        const auto& cut = cuts[static_cast<std::size_t>(idx)];
        const double ssim = cached_dina_ssim(model_name, ds_kind, model, dataset, cut, lambda);
        sweep.push_back({cut, ssim});
        if (ssim >= sigma_max) break;
    }

    std::vector<pi::BoundaryResult> results;
    for (const double sigma : sigmas) {
        pi::BoundaryResult r;
        r.baseline_accuracy = baseline;
        r.ssim_sweep = sweep;
        // First success (from the tail) for this sigma.
        std::int64_t boundary_idx = 0;
        for (const auto& probe : sweep) {
            if (probe.avg_ssim >= sigma) {
                const auto it = std::find_if(cuts.begin(), cuts.end(),
                                             [&](const nn::CutPoint& c) { return c == probe.cut; });
                boundary_idx = std::min<std::int64_t>(
                    std::distance(cuts.begin(), it) + 1,
                    static_cast<std::int64_t>(cuts.size()) - 1);
                break;
            }
        }
        // Phase 2: push later until accuracy is within the drop budget.
        // The last probe is the boundary: the first cut within budget, or
        // cuts.back() when none is, reported with the noised accuracy its
        // probe measured (as pi::search_boundary does).
        const double target = baseline - max_accuracy_drop;
        for (; boundary_idx < static_cast<std::int64_t>(cuts.size()); ++boundary_idx) {
            const auto& cut = cuts[static_cast<std::size_t>(boundary_idx)];
            const double acc =
                nn::evaluate_accuracy_with_noise_at(model, cut, subset, lambda, 0xACC);
            r.accuracy_sweep.push_back({cut, acc});
            if (acc >= target) break;
        }
        r.boundary = r.accuracy_sweep.back().cut;
        r.boundary_accuracy = r.accuracy_sweep.back().noised_accuracy;
        results.push_back(std::move(r));
    }
    return results;
}

inline void print_rule() {
    std::printf("--------------------------------------------------------------------------\n");
}

inline void print_banner(const char* title, const char* paper_ref) {
    print_rule();
    std::printf("%s\n(reproduces %s of the C2PI paper, DAC 2023)\n", title, paper_ref);
    print_rule();
    std::fflush(stdout);
}

}  // namespace c2pi::bench
