#include "data/synthetic.hpp"

#include <cmath>

namespace c2pi::data {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Per-class generative parameters, derived deterministically from
/// (dataset seed, label) so train and test share class structure.
struct ClassPrototype {
    double theta;       ///< grating orientation
    double freq;        ///< grating spatial frequency (cycles per image)
    double color[3];    ///< per-channel grating weight
    double blob_cx, blob_cy, blob_r, blob_amp;
    double edge_pos;    ///< vertical edge position in [0.2, 0.8]
    double edge_amp;
};

ClassPrototype make_prototype(std::uint64_t seed, std::int64_t label, std::int64_t num_classes,
                              float margin) {
    SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(label + 1)));
    Rng rng(sm.next());
    ClassPrototype p{};
    // Orientation is the primary class feature: evenly spread, scaled by margin.
    p.theta = (static_cast<double>(label) / static_cast<double>(num_classes)) * kPi;
    p.freq = 1.5 + 3.0 * rng.uniform() * margin + 1.0 * (1.0 - margin);
    for (auto& c : p.color) c = 0.35 + 0.65 * rng.uniform();
    p.blob_cx = 0.2 + 0.6 * rng.uniform();
    p.blob_cy = 0.2 + 0.6 * rng.uniform();
    p.blob_r = 0.12 + 0.15 * rng.uniform();
    p.blob_amp = (0.25 + 0.3 * rng.uniform()) * margin;
    p.edge_pos = 0.2 + 0.6 * rng.uniform();
    p.edge_amp = 0.2 * rng.uniform() * margin;
    return p;
}
}  // namespace

DatasetConfig DatasetConfig::cifar10_like() {
    DatasetConfig c;
    c.num_classes = 10;
    c.class_margin = 1.0F;
    c.seed = kDefaultSeed ^ 0x10;
    return c;
}

DatasetConfig DatasetConfig::cifar100_like() {
    DatasetConfig c;
    c.num_classes = 20;       // CIFAR-100 modelled by more classes ...
    c.class_margin = 0.55F;   // ... with smaller margins (DESIGN.md §4).
    c.noise_std = 0.07F;
    c.seed = kDefaultSeed ^ 0x100;
    return c;
}

SyntheticImageDataset::SyntheticImageDataset(DatasetConfig config) : config_(config) {
    require(config_.channels == 3, "synthetic dataset generates RGB images");
    Rng train_rng(config_.seed ^ 0xA11CE);
    Rng test_rng(config_.seed ^ 0xB0B);
    train_.reserve(static_cast<std::size_t>(config_.train_size));
    test_.reserve(static_cast<std::size_t>(config_.test_size));
    for (std::int64_t i = 0; i < config_.train_size; ++i)
        train_.push_back(generate_sample(i % config_.num_classes, train_rng));
    for (std::int64_t i = 0; i < config_.test_size; ++i)
        test_.push_back(generate_sample(i % config_.num_classes, test_rng));
}

Sample SyntheticImageDataset::generate_sample(std::int64_t label, Rng& rng) const {
    const auto proto = make_prototype(config_.seed, label, config_.num_classes, config_.class_margin);
    const std::int64_t hw = config_.image_size;
    Sample s;
    s.label = label;
    s.image = Tensor({config_.channels, hw, hw});

    // Per-sample jitter keeps the class recognisable while varying pixels.
    const double phase = rng.uniform() * 2.0 * kPi;
    const double dtheta = (rng.uniform() - 0.5) * 0.15;
    const double bx = proto.blob_cx + (rng.uniform() - 0.5) * 0.2;
    const double by = proto.blob_cy + (rng.uniform() - 0.5) * 0.2;
    const double amp = 0.30 + 0.10 * rng.uniform();

    const double ct = std::cos(proto.theta + dtheta);
    const double st = std::sin(proto.theta + dtheta);
    for (std::int64_t y = 0; y < hw; ++y) {
        for (std::int64_t x = 0; x < hw; ++x) {
            const double u = static_cast<double>(x) / static_cast<double>(hw);
            const double v = static_cast<double>(y) / static_cast<double>(hw);
            const double grating =
                std::sin(2.0 * kPi * proto.freq * (u * ct + v * st) + phase);
            const double dx = u - bx;
            const double dy = v - by;
            const double blob =
                proto.blob_amp * std::exp(-(dx * dx + dy * dy) / (2.0 * proto.blob_r * proto.blob_r));
            const double edge = (u > proto.edge_pos) ? proto.edge_amp : -proto.edge_amp;
            for (std::int64_t c = 0; c < config_.channels; ++c) {
                const double base = 0.5 + amp * proto.color[static_cast<std::size_t>(c)] * grating +
                                    blob + 0.5 * edge;
                const double noisy = base + rng.normal(0.0F, config_.noise_std);
                s.image[(c * hw + y) * hw + x] =
                    static_cast<float>(std::min(1.0, std::max(0.0, noisy)));
            }
        }
    }
    return s;
}

Tensor SyntheticImageDataset::make_batch(std::span<const Sample> samples,
                                         std::span<const std::size_t> indices) const {
    require(!indices.empty(), "empty batch");
    const auto& first = samples[indices[0]].image;
    Tensor batch({static_cast<std::int64_t>(indices.size()), first.dim(0), first.dim(1), first.dim(2)});
    const std::int64_t per = first.numel();
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const auto& img = samples[indices[i]].image;
        std::copy(img.data(), img.data() + per, batch.data() + static_cast<std::int64_t>(i) * per);
    }
    return batch;
}

std::vector<std::int64_t> SyntheticImageDataset::make_labels(
    std::span<const Sample> samples, std::span<const std::size_t> indices) const {
    std::vector<std::int64_t> labels;
    labels.reserve(indices.size());
    for (const auto idx : indices) labels.push_back(samples[idx].label);
    return labels;
}

Tensor SyntheticImageDataset::stack_images(std::span<const Sample> samples, std::size_t n) const {
    n = std::min(n, samples.size());
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    return make_batch(samples, idx);
}

}  // namespace c2pi::data
