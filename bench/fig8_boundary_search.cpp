// Fig. 8 reproduction: the full boundary search (Algorithm 1, sigma=0.3,
// lambda=0.1) with DINA on AlexNet/VGG16/VGG19 x CIFAR-10/100-like.
// Prints the phase-1 SSIM sweep, the phase-2 accuracy checks and the
// returned boundary per combination.

#include "bench/common.hpp"

int main() {
    using namespace c2pi;
    bench::print_banner("Fig. 8 — Algorithm 1 boundary search with DINA (sigma=0.3)", "Figure 8");

    for (const std::string ds_kind : {"CIFAR-10", "CIFAR-100"}) {
        for (const std::string model_name : {"alexnet", "vgg16", "vgg19"}) {
            auto dataset = bench::make_dataset(ds_kind);
            double baseline = 0.0;
            auto model = bench::load_or_train(model_name, ds_kind, dataset, &baseline);

            const auto result = bench::dina_boundary(model_name, ds_kind, model, dataset, 0.3);

            std::printf("\n%s / %s-like   baseline acc %.2f%%\n", model_name.c_str(),
                        ds_kind.c_str(), 100.0 * baseline);
            std::printf("  phase 1 (tail->head SSIM sweep):");
            for (const auto& probe : result.ssim_sweep)
                std::printf("  conv %.1f: %.3f", probe.cut.as_decimal(), probe.avg_ssim);
            std::printf("\n  phase 2 (noised accuracy checks):");
            for (const auto& probe : result.accuracy_sweep)
                std::printf("  conv %.1f: %.1f%%", probe.cut.as_decimal(),
                            100.0 * probe.noised_accuracy);
            std::printf("\n  => boundary conv id: %.1f  (accuracy %.2f%%)\n",
                        result.boundary.as_decimal(), 100.0 * result.boundary_accuracy);
            std::fflush(stdout);
        }
    }
    bench::print_rule();
    std::printf("Paper boundaries (full-width, real CIFAR): AlexNet 4/5, VGG16 9/10,\n"
                "VGG19 9/9 for CIFAR-10/CIFAR-100 respectively.\n");
    return 0;
}
