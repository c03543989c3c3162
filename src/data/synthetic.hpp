#pragma once

/// \file synthetic.hpp
/// Class-structured synthetic image datasets standing in for CIFAR-10 and
/// CIFAR-100 (which are not available in this offline environment; see
/// DESIGN.md §4, substitution 1).
///
/// Every class owns a prototype composed of an oriented sinusoidal grating,
/// a Gaussian blob and a colour profile; samples jitter phase, position and
/// amplitude and add pixel noise. The datasets are (a) learnable by small
/// conv nets, (b) spatially structured so SSIM-based recovery is
/// meaningful, and (c) harder in the "CIFAR-100-like" configuration (more
/// classes, smaller margins) which reproduces its lower baseline accuracy.

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace c2pi::data {

struct DatasetConfig {
    std::int64_t num_classes = 10;
    std::int64_t image_size = 32;  ///< square images, CIFAR-sized by default
    std::int64_t channels = 3;
    std::int64_t train_size = 1024;
    std::int64_t test_size = 256;
    float class_margin = 1.0F;  ///< scales inter-class separation (lower = harder)
    float noise_std = 0.05F;    ///< additive pixel noise
    std::uint64_t seed = kDefaultSeed;

    /// CIFAR-10 stand-in: 10 well-separated classes.
    [[nodiscard]] static DatasetConfig cifar10_like();
    /// CIFAR-100 stand-in: 20 classes with smaller margins (see DESIGN.md).
    [[nodiscard]] static DatasetConfig cifar100_like();
};

struct Sample {
    Tensor image;  ///< [C,H,W], values in [0,1]
    std::int64_t label = 0;
};

/// Deterministic in-memory dataset with train/test splits.
class SyntheticImageDataset {
public:
    explicit SyntheticImageDataset(DatasetConfig config);

    [[nodiscard]] const DatasetConfig& config() const { return config_; }
    [[nodiscard]] const std::vector<Sample>& train() const { return train_; }
    [[nodiscard]] const std::vector<Sample>& test() const { return test_; }

    /// Stack samples indexed by `indices` into one [N,C,H,W] batch.
    [[nodiscard]] Tensor make_batch(std::span<const Sample> samples,
                                    std::span<const std::size_t> indices) const;
    [[nodiscard]] std::vector<std::int64_t> make_labels(std::span<const Sample> samples,
                                                        std::span<const std::size_t> indices) const;

    /// Stack the first n samples of a split into a batch (n clamped to size).
    [[nodiscard]] Tensor stack_images(std::span<const Sample> samples, std::size_t n) const;

private:
    [[nodiscard]] Sample generate_sample(std::int64_t label, Rng& rng) const;

    DatasetConfig config_;
    std::vector<Sample> train_;
    std::vector<Sample> test_;
};

}  // namespace c2pi::data
