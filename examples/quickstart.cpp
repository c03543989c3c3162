// Quickstart: the complete C2PI pipeline in ~80 lines.
//
//  1. The server trains a model (AlexNet on a CIFAR-10-like dataset).
//  2. The server runs Algorithm 1 with DINA to find the crypto-clear
//     boundary (here with a small budget; see bench/ for paper scale).
//  3. The boundary is compiled ONCE into an immutable artifact
//     (pi::CompiledModel) and served many times: one single inference,
//     then a batch of four served concurrently (pi::run_batch), each
//     request running its own revealed clear-layer tail on the server.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "attack/inverse.hpp"
#include "nn/zoo.hpp"
#include "nn/trainer.hpp"
#include "pi/c2pi.hpp"

int main() {
    using namespace c2pi;

    // ---- 1. server side: data + model ------------------------------------
    auto dcfg = data::DatasetConfig::cifar10_like();
    dcfg.image_size = 16;
    dcfg.train_size = 256;
    dcfg.test_size = 96;
    data::SyntheticImageDataset dataset(dcfg);

    nn::ModelConfig mcfg;
    mcfg.width_multiplier = 0.1F;
    mcfg.input_hw = 16;
    nn::Graph model = nn::zoo::build("alexnet", mcfg);

    std::printf("Training AlexNet (width x%.2f) ...\n", mcfg.width_multiplier);
    nn::TrainConfig tcfg;
    tcfg.epochs = 12;
    tcfg.lr = 0.01F;
    tcfg.momentum = 0.9F;
    const auto report = nn::train_classifier(model, dataset, tcfg);
    std::printf("  test accuracy: %.1f%%\n\n", 100.0 * report.final_test_accuracy);

    // ---- 2. Algorithm 1: find the crypto-clear boundary with DINA --------
    pi::C2piOptions options;
    options.backend = pi::PiBackend::kCheetah;
    options.he_ring_degree = 1024;  // 16x16 images fit small HE parameters
    options.boundary.ssim_threshold = 0.3;   // sigma
    options.boundary.noise_lambda = 0.1F;    // lambda
    options.boundary.max_accuracy_drop = 0.025;  // delta
    options.boundary.attack_eval_samples = 6;

    attack::InverseConfig dina_cfg;
    dina_cfg.epochs = 5;
    dina_cfg.train_samples = 96;
    const attack::IdpaFactory dina = [&] {
        return std::make_unique<attack::InverseNetAttack>(attack::InverseKind::kDistilled,
                                                          dina_cfg);
    };

    std::printf("Running Algorithm 1 (boundary search with DINA) ...\n");
    pi::C2piSystem system(model, dataset, dina, options);
    std::printf("  boundary: linear op %.1f of %lld  (accuracy there: %.1f%%)\n\n",
                system.boundary().boundary.as_decimal(),
                static_cast<long long>(model.num_linear_ops()),
                100.0 * system.boundary().boundary_accuracy);

    // ---- 3. serve-many: one inference, then a batch ----------------------
    const auto& sample = dataset.test()[0];
    std::printf("Private inference on a client image (true class %lld) ...\n",
                static_cast<long long>(sample.label));
    const auto result = system.infer(sample.image.reshaped({1, 3, 16, 16}));

    std::int64_t predicted = 0;
    for (std::int64_t j = 1; j < result.logits.dim(1); ++j)
        if (result.logits[j] > result.logits[predicted]) predicted = j;

    std::printf("  predicted class: %lld\n", static_cast<long long>(predicted));
    std::printf("  crypto linear ops: %lld   clear (hidden) linear ops: %lld\n",
                static_cast<long long>(result.crypto_linear_ops),
                static_cast<long long>(result.hidden_linear_ops));
    std::printf("  traffic: %.2f MB   LAN latency: %.3f s   WAN latency: %.3f s\n",
                static_cast<double>(result.stats.total_bytes()) / (1024.0 * 1024.0),
                result.stats.latency_seconds(net::NetworkModel::lan()),
                result.stats.latency_seconds(net::NetworkModel::wan()));

    // ---- 4. batched serving: concurrent sessions, one per request --------
    std::vector<Tensor> requests;
    for (std::size_t i = 1; i <= 4; ++i)
        requests.push_back(dataset.test()[i].image.reshaped({1, 3, 16, 16}));
    std::printf("\nBatched private inference on %zu client requests ...\n", requests.size());
    const auto batch = system.infer_batch(requests);
    for (std::size_t i = 0; i < batch.results.size(); ++i) {
        const auto& logits = batch.results[i].logits;
        std::int64_t cls = 0;
        for (std::int64_t j = 1; j < logits.dim(1); ++j)
            if (logits[j] > logits[cls]) cls = j;
        std::printf("  request %zu: predicted class %lld (true %lld)\n", i,
                    static_cast<long long>(cls),
                    static_cast<long long>(dataset.test()[i + 1].label));
    }
    std::printf("  clear-tail passes on the server so far: %llu "
                "(the single inference + one per batch request)\n",
                static_cast<unsigned long long>(system.compiled().clear_tail_passes()));
    std::printf("  batch traffic: %.2f MB   joint wall time: %.3f s\n",
                static_cast<double>(batch.aggregate.total_bytes()) / (1024.0 * 1024.0),
                batch.aggregate.wall_seconds);
    return 0;
}
