#include "pi/compiled_model.hpp"

namespace c2pi::pi {

CompiledModel::CompiledModel(const nn::Graph& model, Options options)
    : model_(&model),
      artifact_(ModelArtifact::build(model, {.input_chw = std::move(options.input_chw),
                                             .boundary = options.boundary,
                                             .fmt = options.fmt,
                                             .he_ring_degree = options.he_ring_degree})),
      pool_(core::make_serving_pool(options.num_threads)),
      server_data_(extract_server_data(model, artifact_.plan.size(), artifact_.fmt)),
      bfv_(artifact_.bfv_params(pool_.get())),
      layer_caches_(precompute_layer_caches(artifact_.plan, server_data_, bfv_)) {}

int CompiledModel::num_threads() const { return pool_ == nullptr ? 1 : pool_->num_threads(); }

Shape CompiledModel::batched_boundary_shape(std::int64_t batch) const {
    Shape s{batch};
    const Shape& b = boundary_shape();
    s.insert(s.end(), b.begin(), b.end());
    return s;
}

Tensor CompiledModel::run_clear_tail(const Tensor& boundary_activations) const {
    require(!full_pi(), "full-PI artifact has no clear tail");
    require(boundary_activations.rank() >= 2,
            "clear tail expects a batched [N, ...] boundary activation");
    tail_passes_.fetch_add(1, std::memory_order_relaxed);
    return model_->infer_range(crypto_end(), model_->size(), boundary_activations);
}

}  // namespace c2pi::pi
