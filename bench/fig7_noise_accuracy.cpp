// Fig. 7 reproduction: the accuracy cost of the noise defense. Uniform
// noise of magnitude lambda is injected at each conv layer's output and
// the remaining network completes inference; accuracy degrades with
// lambda, motivating the paper's choice of lambda = 0.1.

#include "bench/common.hpp"

int main() {
    using namespace c2pi;
    bench::print_banner("Fig. 7 — noise magnitude vs inference accuracy (VGG16)", "Figure 7");
    const float lambdas[] = {0.0F, 0.1F, 0.2F, 0.3F, 0.4F, 0.5F};

    for (const std::string ds_kind : {"CIFAR-10", "CIFAR-100"}) {
        auto dataset = bench::make_dataset(ds_kind);
        double baseline = 0.0;
        auto model = bench::load_or_train("vgg16", ds_kind, dataset, &baseline);
        const std::span<const data::Sample> subset(
            dataset.test().data(),
            std::min(bench::scale().accuracy_samples, dataset.test().size()));

        std::printf("\nVGG16 / %s-like  baseline accuracy %.2f%%  (rows = conv id)\n",
                    ds_kind.c_str(), 100.0 * baseline);
        std::printf("%8s", "conv id");
        for (const float l : lambdas) std::printf("  l=%4.1f", l);
        std::printf("\n");
        for (const auto& cut : pi::candidate_cuts(model, /*include_half_points=*/false)) {
            std::printf("%8lld", static_cast<long long>(cut.linear_index));
            for (const float lambda : lambdas) {
                const double acc = nn::evaluate_accuracy_with_noise_at(model, cut, subset, lambda,
                                                                       404 + cut.linear_index);
                std::printf("  %5.1f%%", 100.0 * acc);
            }
            std::printf("\n");
            std::fflush(stdout);
        }
    }
    bench::print_rule();
    std::printf("Paper: accuracy decays as lambda grows, most sharply when noise is injected\n"
                "at early layers; lambda=0.1 keeps accuracy near baseline.\n");
    return 0;
}
