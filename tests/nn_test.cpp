// Tests for the NN stack: layer gradient checks, Sequential cut-point
// arithmetic, model topology invariants, optimizer behaviour, training
// convergence on a tiny problem, and parameter serialization.

#include <gtest/gtest.h>

#include <cstdio>

#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"

namespace c2pi {
namespace {

using nn::CutPoint;

/// Central finite-difference check of dL/dx for L = sum(layer(x)).
void check_input_gradient(nn::Layer& layer, const Tensor& x, float eps = 1e-2F,
                          float tol = 3e-2F) {
    const Tensor y = layer.forward(x);
    Tensor gy(y.shape());
    gy.fill(1.0F);
    const Tensor gx = layer.backward(gy);
    ASSERT_EQ(gx.numel(), x.numel());
    for (std::int64_t i = 0; i < std::min<std::int64_t>(x.numel(), 40); i += 3) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const float fp = ops::sum(layer.forward(xp));
        const float fm = ops::sum(layer.forward(xm));
        EXPECT_NEAR(gx[i], (fp - fm) / (2 * eps), tol) << "index " << i;
    }
}

TEST(Layers, Conv2dInputGradient) {
    Rng rng(1);
    nn::Conv2d conv(2, 3, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    check_input_gradient(conv, Tensor::randn({1, 2, 5, 5}, rng));
}

TEST(Layers, DilatedConv2dInputGradient) {
    Rng rng(2);
    nn::Conv2d conv(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 2, .dilation = 2}, rng);
    check_input_gradient(conv, Tensor::randn({1, 2, 6, 6}, rng));
}

TEST(Layers, LinearInputGradient) {
    Rng rng(3);
    nn::Linear fc(6, 4, rng);
    check_input_gradient(fc, Tensor::randn({2, 6}, rng));
}

TEST(Layers, LinearParameterGradient) {
    Rng rng(4);
    nn::Linear fc(3, 2, rng);
    const Tensor x = Tensor::randn({2, 3}, rng);
    const Tensor y = fc.forward(x);
    Tensor gy(y.shape());
    gy.fill(1.0F);
    (void)fc.backward(gy);
    const float eps = 1e-2F;
    for (std::int64_t i = 0; i < fc.weight().value.numel(); ++i) {
        nn::Linear probe(3, 2, rng);
        // Copy weights, perturb one.
        probe.weight().value = fc.weight().value;
        probe.bias().value = fc.bias().value;
        probe.weight().value[i] += eps;
        const float fp = ops::sum(probe.forward(x));
        probe.weight().value[i] -= 2 * eps;
        const float fm = ops::sum(probe.forward(x));
        EXPECT_NEAR(fc.weight().grad[i], (fp - fm) / (2 * eps), 3e-2F);
    }
}

TEST(Layers, ResidualBlockGradientAndShape) {
    Rng rng(5);
    nn::ResidualBlock block(3, 5, rng);
    const Tensor x = Tensor::randn({1, 3, 6, 6}, rng, 0.5F);
    const Tensor y = block.forward(x);
    EXPECT_EQ(y.dim(1), 5);
    EXPECT_EQ(y.dim(2), 6);
    check_input_gradient(block, x, 1e-2F, 5e-2F);
}

TEST(Layers, ResidualBlockIdentitySkipWhenChannelsMatch) {
    Rng rng(6);
    nn::ResidualBlock block(4, 4, rng);
    std::vector<nn::Parameter*> params;
    block.collect_parameters(params);
    EXPECT_EQ(params.size(), 4U);  // two convs x (weight + bias), no projection
}

TEST(Layers, MaxPoolBackwardGradient) {
    Rng rng(7);
    nn::MaxPool2d pool(2, 2);
    check_input_gradient(pool, Tensor::randn({1, 2, 4, 4}, rng));
}

TEST(Sequential, ForwardRangeComposition) {
    Rng rng(8);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(1, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    model.emplace<nn::Relu>();
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(2 * 4 * 4, 3, rng);
    const Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
    const Tensor full = model.forward(x);
    const Tensor mid = model.forward_range(0, 2, x);
    const Tensor rest = model.forward_range(2, model.size(), mid);
    EXPECT_TRUE(full.allclose(rest));
}

TEST(Sequential, CutPointFlatIndexConvention) {
    Rng rng(9);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(1, 2, ops::ConvSpec{}, rng);  // flat 0, linear op 1
    model.emplace<nn::Relu>();                              // flat 1 -> "1.5"
    model.emplace<nn::MaxPool2d>(2, 2);                     // flat 2
    model.emplace<nn::Conv2d>(2, 2, ops::ConvSpec{}, rng);  // flat 3, linear op 2
    model.emplace<nn::Relu>();                              // flat 4 -> "2.5"
    model.emplace<nn::Flatten>();                           // flat 5
    model.emplace<nn::Linear>(2 * 4 * 4, 3, rng);           // flat 6, linear op 3

    EXPECT_EQ(model.num_linear_ops(), 3);
    EXPECT_EQ(model.flat_cut_index({.linear_index = 1, .after_relu = false}), 0U);
    EXPECT_EQ(model.flat_cut_index({.linear_index = 1, .after_relu = true}), 1U);
    EXPECT_EQ(model.flat_cut_index({.linear_index = 2, .after_relu = true}), 4U);
    EXPECT_EQ(model.flat_cut_index({.linear_index = 3, .after_relu = false}), 6U);
    // Linear op 3 has no trailing ReLU: the ".5" position is invalid.
    EXPECT_THROW((void)model.flat_cut_index({.linear_index = 3, .after_relu = true}), Error);
    EXPECT_THROW((void)model.flat_cut_index({.linear_index = 4, .after_relu = false}), Error);
}

TEST(Sequential, PrefixSuffixEqualsFullForward) {
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.1F;
    cfg.input_hw = 32;
    nn::Sequential model = nn::make_vgg16(cfg);
    Rng rng(10);
    const Tensor x = Tensor::uniform({1, 3, 32, 32}, rng, 0.0F, 1.0F);
    const Tensor full = model.forward(x);
    for (const CutPoint cut : {CutPoint{3, false}, CutPoint{7, true}, CutPoint{13, false}}) {
        const Tensor act = model.forward_prefix(cut, x);
        const Tensor out = model.forward_suffix(cut, act);
        EXPECT_TRUE(full.allclose(out, 1e-4F)) << "cut " << cut.as_decimal();
    }
}

TEST(Models, Vgg16HasThirteenConvs) {
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.05F;
    nn::Sequential m = nn::make_vgg16(cfg);
    std::int64_t convs = 0;
    for (std::size_t i = 0; i < m.size(); ++i)
        convs += (m.layer(i).kind() == nn::LayerKind::kConv2d);
    EXPECT_EQ(convs, 13);
    EXPECT_EQ(m.num_linear_ops(), 14);  // 13 convs + classifier FC
}

TEST(Models, Vgg19HasSixteenConvs) {
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.05F;
    nn::Sequential m = nn::make_vgg19(cfg);
    std::int64_t convs = 0;
    for (std::size_t i = 0; i < m.size(); ++i)
        convs += (m.layer(i).kind() == nn::LayerKind::kConv2d);
    EXPECT_EQ(convs, 16);
}

TEST(Models, AlexNetHasFiveConvsThreeFcs) {
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.05F;
    nn::Sequential m = nn::make_alexnet(cfg);
    std::int64_t convs = 0, fcs = 0;
    for (std::size_t i = 0; i < m.size(); ++i) {
        convs += (m.layer(i).kind() == nn::LayerKind::kConv2d);
        fcs += (m.layer(i).kind() == nn::LayerKind::kLinear);
    }
    EXPECT_EQ(convs, 5);
    EXPECT_EQ(fcs, 3);
}

TEST(Models, OutputShapeMatchesClasses) {
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.05F;
    cfg.num_classes = 20;
    for (const char* name : {"alexnet", "vgg16", "vgg19", "resnet9", "resnet18"}) {
        nn::Graph m = nn::zoo::build(name, cfg);
        Rng rng(11);
        const Tensor x = Tensor::uniform({2, 3, 32, 32}, rng, 0.0F, 1.0F);
        const Tensor y = m.forward(x);
        EXPECT_EQ(y.dim(0), 2) << name;
        EXPECT_EQ(y.dim(1), 20) << name;
    }
}

TEST(Zoo, UnknownIdThrowsTypedError) {
    nn::ModelConfig cfg;
    EXPECT_THROW(nn::zoo::build("resnet50", cfg), nn::zoo::UnknownModel);
    // The typed error names the bad id and the known catalogue.
    try {
        (void)nn::zoo::build("resnet50", cfg);
        FAIL() << "expected UnknownModel";
    } catch (const nn::zoo::UnknownModel& e) {
        EXPECT_NE(std::string(e.what()).find("resnet50"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("resnet9"), std::string::npos);
    }
}

TEST(Zoo, ListDescribesCatalogue) {
    const auto& catalogue = nn::zoo::list();
    ASSERT_EQ(catalogue.size(), 5U);
    bool saw_resnet9 = false;
    for (const auto& d : catalogue) {
        EXPECT_FALSE(d.id.empty());
        EXPECT_FALSE(d.description.empty());
        EXPECT_GT(d.param_count, 0);
        EXPECT_GT(d.num_linear_ops, 0);
        if (d.id == "resnet9") {
            saw_resnet9 = true;
            EXPECT_TRUE(d.residual);
            EXPECT_EQ(d.num_linear_ops, 8);
        }
    }
    EXPECT_TRUE(saw_resnet9);
}

TEST(Graph, ResidualForwardMatchesManualComposition) {
    Rng rng(21);
    nn::Graph g;
    const auto c0 = g.add_node(
        std::make_unique<nn::Conv2d>(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng),
        nn::Graph::kInput);
    const auto r0 = g.add_node(std::make_unique<nn::Relu>(), c0);
    const auto c1 = g.add_node(
        std::make_unique<nn::Conv2d>(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng),
        r0);
    const auto sum = g.add_residual(c1, c0);
    (void)g.add_node(std::make_unique<nn::Relu>(), sum);

    const Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
    const Tensor got = g.infer(x);
    // Manual composition of the same layer objects over the same DAG.
    const Tensor t0 = g.layer(static_cast<std::size_t>(c0)).infer(x);
    const Tensor t1 = g.layer(static_cast<std::size_t>(r0)).infer(t0);
    const Tensor t2 = g.layer(static_cast<std::size_t>(c1)).infer(t1);
    const Tensor t3 = ops::add(t2, t0);
    const Tensor want = g.layer(4).infer(t3);
    EXPECT_TRUE(got.allclose(want));
}

TEST(Graph, ResidualBackwardMatchesFiniteDifference) {
    Rng rng(22);
    nn::Graph g;
    const auto c0 = g.add_node(
        std::make_unique<nn::Conv2d>(1, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng),
        nn::Graph::kInput);
    const auto r0 = g.add_node(std::make_unique<nn::Relu>(), c0);
    const auto c1 = g.add_node(
        std::make_unique<nn::Conv2d>(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng),
        r0);
    (void)g.add_residual(c1, c0);  // fan-out on c0: grads must accumulate

    const Tensor x = Tensor::randn({1, 1, 4, 4}, rng, 0.5F);
    const Tensor y = g.forward(x);
    Tensor gy(y.shape());
    gy.fill(1.0F);
    const Tensor gx = g.backward_range(0, g.size(), gy);
    ASSERT_EQ(gx.numel(), x.numel());
    const float eps = 1e-2F;
    for (std::int64_t i = 0; i < x.numel(); i += 2) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const float fp = ops::sum(g.forward(xp));
        const float fm = ops::sum(g.forward(xm));
        EXPECT_NEAR(gx[i], (fp - fm) / (2 * eps), 5e-2F) << "index " << i;
    }
}

TEST(Graph, FoldBatchNormsPreservesInference) {
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.1F;
    cfg.input_hw = 16;
    nn::Graph with_bn = nn::make_resnet9(cfg, /*fold_bn=*/false);
    nn::Graph folded = nn::make_resnet9(cfg, /*fold_bn=*/true);  // same seed, same weights
    EXPECT_LT(folded.size(), with_bn.size());
    for (std::size_t i = 0; i < folded.size(); ++i) {
        if (folded.is_add(i)) continue;
        EXPECT_NE(folded.layer(i).kind(), nn::LayerKind::kBatchNorm);
    }
    Rng rng(23);
    const Tensor x = Tensor::uniform({2, 3, 16, 16}, rng, 0.0F, 1.0F);
    const Tensor want = with_bn.infer(x);
    const Tensor got = folded.infer(x);
    EXPECT_TRUE(got.allclose(want, 1e-4F));
}

TEST(Graph, ArticulationPointsExcludeSkipSpans) {
    Rng rng(24);
    nn::Graph g;
    const auto c0 = g.add_node(
        std::make_unique<nn::Conv2d>(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng),
        nn::Graph::kInput);
    const auto r0 = g.add_node(std::make_unique<nn::Relu>(), c0);
    const auto c1 = g.add_node(
        std::make_unique<nn::Conv2d>(2, 2, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng),
        r0);
    const auto sum = g.add_residual(c1, c0);
    const auto r1 = g.add_node(std::make_unique<nn::Relu>(), sum);
    // The skip edge (c0 -> add) crosses every node strictly inside it.
    EXPECT_TRUE(g.is_articulation(static_cast<std::size_t>(c0)));
    EXPECT_FALSE(g.is_articulation(static_cast<std::size_t>(r0)));
    EXPECT_FALSE(g.is_articulation(static_cast<std::size_t>(c1)));
    EXPECT_TRUE(g.is_articulation(static_cast<std::size_t>(sum)));
    EXPECT_TRUE(g.is_articulation(static_cast<std::size_t>(r1)));
    // A pure chain is all articulation points.
    nn::Sequential chain;
    chain.emplace<nn::Relu>();
    chain.emplace<nn::Flatten>();
    EXPECT_TRUE(chain.is_linear_chain());
    EXPECT_TRUE(chain.is_articulation(0));
    EXPECT_TRUE(chain.is_articulation(1));
}

TEST(Models, ScaledChannelsFloorsAtFour) {
    EXPECT_EQ(nn::scaled_channels(64, 0.25F), 16);
    EXPECT_EQ(nn::scaled_channels(64, 0.01F), 4);
    EXPECT_EQ(nn::scaled_channels(512, 1.0F), 512);
}

TEST(Optimizer, SgdReducesQuadraticLoss) {
    // Minimise ||x - 3||^2 over a single 1-element parameter.
    nn::Parameter p(Tensor({1}, {0.0F}));
    nn::Sgd opt({&p}, 0.1F, 0.0F);
    for (int i = 0; i < 100; ++i) {
        p.grad[0] = 2.0F * (p.value[0] - 3.0F);
        opt.step();
    }
    EXPECT_NEAR(p.value[0], 3.0F, 1e-3F);
}

TEST(Optimizer, AdamReducesQuadraticLoss) {
    nn::Parameter p(Tensor({1}, {0.0F}));
    nn::Adam opt({&p}, 0.1F);
    for (int i = 0; i < 300; ++i) {
        p.grad[0] = 2.0F * (p.value[0] - 3.0F);
        opt.step();
    }
    EXPECT_NEAR(p.value[0], 3.0F, 1e-2F);
}

TEST(Trainer, LearnsSyntheticDataset) {
    auto dcfg = data::DatasetConfig::cifar10_like();
    dcfg.train_size = 160;
    dcfg.test_size = 60;
    dcfg.image_size = 16;
    data::SyntheticImageDataset ds(dcfg);

    Rng rng(12);
    nn::Sequential model;
    model.emplace<nn::Conv2d>(3, 8, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    model.emplace<nn::Relu>();
    model.emplace<nn::MaxPool2d>(2, 2);
    model.emplace<nn::Conv2d>(8, 16, ops::ConvSpec{.kernel = 3, .stride = 1, .pad = 1}, rng);
    model.emplace<nn::Relu>();
    model.emplace<nn::MaxPool2d>(2, 2);
    model.emplace<nn::Flatten>();
    model.emplace<nn::Linear>(16 * 4 * 4, 10, rng);

    nn::TrainConfig tcfg;
    tcfg.epochs = 8;
    tcfg.batch_size = 16;
    tcfg.lr = 0.05F;
    const auto report = nn::train_classifier(model, ds, tcfg);
    EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front());
    EXPECT_GT(report.final_test_accuracy, 0.5);  // 10 classes, chance = 0.1
}

TEST(Trainer, NoiseAtCutDegradesGracefully) {
    auto dcfg = data::DatasetConfig::cifar10_like();
    dcfg.train_size = 120;
    dcfg.test_size = 50;
    dcfg.image_size = 16;
    data::SyntheticImageDataset ds(dcfg);
    nn::ModelConfig mcfg;
    mcfg.width_multiplier = 0.1F;
    mcfg.input_hw = 16;
    nn::Sequential model = nn::make_alexnet(mcfg);
    nn::TrainConfig tcfg;
    tcfg.epochs = 5;
    tcfg.lr = 0.03F;
    (void)nn::train_classifier(model, ds, tcfg);

    const CutPoint cut{.linear_index = 2, .after_relu = true};
    const double clean = nn::evaluate_accuracy_with_noise_at(model, cut, ds.test(), 0.0F, 99);
    const double heavy = nn::evaluate_accuracy_with_noise_at(model, cut, ds.test(), 5.0F, 99);
    EXPECT_GE(clean, heavy);  // extreme noise cannot help
}

TEST(Serialize, SaveLoadRoundTrip) {
    Rng rng(13);
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.05F;
    nn::Sequential a = nn::make_vgg16(cfg);
    nn::Sequential b = nn::make_vgg16(cfg);
    // Perturb a so the two differ, save a, load into b.
    for (auto* p : a.parameters())
        for (std::int64_t i = 0; i < p->value.numel(); ++i) p->value[i] += 0.01F;
    const std::string path = "/tmp/c2pi_serialize_test.bin";
    nn::save_parameters(a, path);
    nn::load_parameters(b, path);
    const Tensor x = Tensor::uniform({1, 3, 32, 32}, rng, 0.0F, 1.0F);
    EXPECT_TRUE(a.forward(x).allclose(b.forward(x), 1e-6F));
    std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsWrongArchitecture) {
    nn::ModelConfig cfg;
    cfg.width_multiplier = 0.05F;
    nn::Sequential a = nn::make_vgg16(cfg);
    nn::Sequential b = nn::make_alexnet(cfg);
    const std::string path = "/tmp/c2pi_serialize_mismatch.bin";
    nn::save_parameters(a, path);
    EXPECT_THROW(nn::load_parameters(b, path), Error);
    EXPECT_FALSE(nn::try_load_parameters(b, path));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace c2pi
