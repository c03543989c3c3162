#include "pi/c2pi.hpp"

namespace c2pi::pi {

namespace {

CompiledModel::Options compile_options(const nn::CutPoint& boundary, const Shape& input_chw,
                                       const C2piOptions& options) {
    return CompiledModel::Options{.input_chw = input_chw,
                                  .boundary = boundary,
                                  .fmt = options.fmt,
                                  .he_ring_degree = options.he_ring_degree};
}

SessionConfig session_config(const C2piOptions& options) {
    return SessionConfig{.backend = options.backend,
                         .noise_lambda = options.boundary.noise_lambda,
                         .seed = options.seed,
                         .nonlinear = options.nonlinear};
}

Shape dataset_input_shape(const data::SyntheticImageDataset& dataset) {
    require(!dataset.test().empty(), "dataset has no test samples to size the input from");
    const Shape& s = dataset.test()[0].image.shape();
    require(s.size() == 3, "dataset samples must be [C,H,W] images");
    return s;
}

}  // namespace

C2piSystem::C2piSystem(nn::Graph& model, const data::SyntheticImageDataset& dataset,
                       const attack::IdpaFactory& make_attack, const C2piOptions& options)
    : boundary_(search_boundary(model, dataset, make_attack, options.boundary)),
      compiled_(model, compile_options(boundary_.boundary, dataset_input_shape(dataset), options)),
      config_(session_config(options)) {}

C2piSystem::C2piSystem(const nn::Graph& model, const nn::CutPoint& boundary,
                       const Shape& input_chw, const C2piOptions& options)
    : boundary_(), compiled_(model, compile_options(boundary, input_chw, options)),
      config_(session_config(options)) {
    boundary_.boundary = boundary;
}

}  // namespace c2pi::pi
