#pragma once

/// \file optimizer.hpp
/// First-order optimizers bound to a fixed parameter list. The paper
/// trains inversion models with SGD (lr 0.001); Adam is provided for the
/// MLA input optimisation and classifier training.

#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace c2pi::nn {

class Optimizer {
public:
    explicit Optimizer(std::vector<Parameter*> params) : params_(std::move(params)) {}
    virtual ~Optimizer() = default;
    Optimizer(const Optimizer&) = delete;
    Optimizer& operator=(const Optimizer&) = delete;

    /// Apply one update from accumulated gradients, then zero them.
    virtual void step() = 0;

    void zero_grad() {
        for (auto* p : params_) p->zero_grad();
    }

protected:
    std::vector<Parameter*> params_;
};

/// SGD with classical momentum and optional weight decay.
class Sgd final : public Optimizer {
public:
    Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.9F, float weight_decay = 0.0F);
    void step() override;

private:
    float lr_, momentum_, weight_decay_;
    std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba 2015).
class Adam final : public Optimizer {
public:
    Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9F, float beta2 = 0.999F,
         float eps = 1e-8F);
    void step() override;

private:
    float lr_, beta1_, beta2_, eps_;
    std::int64_t t_ = 0;
    std::vector<Tensor> m_, v_;
};

}  // namespace c2pi::nn
