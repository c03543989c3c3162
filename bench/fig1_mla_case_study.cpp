// Fig. 1 reproduction: MLA case study on VGG16/CIFAR-10-like. The curious
// server attacks one client image from each conv layer's activation; once
// SSIM drops below the 0.3 failure threshold, the recovered image no
// longer identifies the input — the observation that motivates C2PI.

#include "bench/common.hpp"
#include "metrics/ssim.hpp"

int main() {
    using namespace c2pi;
    bench::print_banner("Fig. 1 — MLA case study (SSIM per conv layer, single image)", "Figure 1");

    auto dataset = bench::make_dataset("CIFAR-10");
    double acc = 0.0;
    auto model = bench::load_or_train("vgg16", "CIFAR-10", dataset, &acc);
    std::printf("VGG16 (width x%.3f) test accuracy: %.2f%%\n\n", bench::scale().width_multiplier,
                100.0 * acc);

    const auto& image = dataset.test()[0].image;
    Rng rng(1);
    attack::MlaAttack mla(
        attack::MlaConfig{.iterations = bench::scale().mla_iterations, .lr = 0.06F, .seed = 5});

    std::printf("%8s  %10s  %10s  %s\n", "conv id", "SSIM", "PSNR (dB)", "verdict (threshold 0.3)");
    double last_success = 0;
    for (const auto& cut : pi::candidate_cuts(model, /*include_half_points=*/false)) {
        const Tensor act = attack::noised_activation(model, cut, image, /*lambda=*/0.0F, rng);
        Tensor guess = mla.recover(model, cut, act);
        guess = ops::clamp(guess.reshaped(image.shape()), 0.0F, 1.0F);
        const double ssim = metrics::ssim(image, guess);
        const double psnr = metrics::psnr(image, guess);
        std::printf("%8lld  %10.3f  %10.2f  %s\n", static_cast<long long>(cut.linear_index), ssim,
                    psnr, ssim >= 0.3 ? "RECOVERED" : "protected");
        if (ssim >= 0.3) last_success = cut.as_decimal();
        std::fflush(stdout);
    }
    bench::print_rule();
    std::printf("Paper: recovery fails after conv 10 (32x32 full-width VGG16).\n");
    std::printf("Here : last successful MLA recovery at conv %.1f.\n", last_success);
    return 0;
}
