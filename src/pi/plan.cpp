#include "pi/plan.hpp"

#include <sstream>

#include "nn/layers.hpp"

namespace c2pi::pi {

PoolGeometryError::PoolGeometryError(std::size_t index, const Shape& in_shape,
                                     std::int64_t kernel, std::int64_t stride)
    : Error([&] {
          std::ostringstream os;
          os << "pooling at layer " << index << " does not tile its input: [" << in_shape[1]
             << 'x' << in_shape[2] << "] with kernel " << kernel << ", stride " << stride
             << " leaves a partial window";
          return os.str();
      }()),
      layer_index(index) {}

namespace {

/// (dim - kernel) / stride + 1, refusing geometry that leaves a partial
/// window — silently flooring here would make the plan's out_shape
/// disagree with the plaintext reference computation.
Shape pooled_shape(const Shape& shape, std::int64_t kernel, std::int64_t stride,
                   std::size_t index) {
    if (kernel <= 0 || stride <= 0 || kernel > shape[1] || kernel > shape[2] ||
        (shape[1] - kernel) % stride != 0 || (shape[2] - kernel) % stride != 0)
        throw PoolGeometryError(index, shape, kernel, stride);
    return {shape[0], (shape[1] - kernel) / stride + 1, (shape[2] - kernel) / stride + 1};
}

}  // namespace

std::vector<LayerPlan> plan_layers(const nn::Graph& model, const Shape& input_chw, std::size_t end) {
    require(input_chw.size() == 3, "plan expects a [C,H,W] input shape");
    require(end <= model.size(), "plan range out of bounds");
    std::vector<LayerPlan> plan;
    std::vector<Shape> shapes(end);  // per-node output shapes
    const auto shape_of = [&](std::int64_t src) -> const Shape& {
        return src < 0 ? input_chw : shapes[static_cast<std::size_t>(src)];
    };

    for (std::size_t i = 0; i < end; ++i) {
        LayerPlan entry;
        entry.input0 = model.input0(i);
        entry.in_shape = shape_of(entry.input0);
        Shape shape = entry.in_shape;  // [C,H,W] while spatial, [F] after flatten

        if (model.is_add(i)) {
            entry.op = PlanOp::kResidualAdd;
            entry.input1 = model.input1(i);
            require(shape_of(entry.input1) == shape,
                    "residual add joins operands of different shapes");
            entry.out_shape = shape;
            shapes[i] = shape;
            plan.push_back(std::move(entry));
            continue;
        }

        const nn::Layer& layer = model.layer(i);
        switch (layer.kind()) {
            case nn::LayerKind::kConv2d: {
                const auto& conv = static_cast<const nn::Conv2d&>(layer);
                require(shape.size() == 3, "conv after flatten is unsupported");
                require(conv.spec().dilation == 1, "dilated conv not supported under MPC");
                entry.op = PlanOp::kConv;
                entry.geo = he::ConvGeometry{.in_channels = shape[0],
                                             .height = shape[1],
                                             .width = shape[2],
                                             .out_channels = conv.out_channels(),
                                             .kernel = conv.spec().kernel,
                                             .stride = conv.spec().stride,
                                             .pad = conv.spec().pad};
                shape = {conv.out_channels(), entry.geo.out_h(), entry.geo.out_w()};
                break;
            }
            case nn::LayerKind::kLinear: {
                const auto& fc = static_cast<const nn::Linear&>(layer);
                require(shape.size() == 1, "linear layer requires flattened input");
                entry.op = PlanOp::kLinear;
                entry.in_features = fc.in_features();
                entry.out_features = fc.out_features();
                require(shape[0] == entry.in_features, "linear input size mismatch");
                shape = {entry.out_features};
                break;
            }
            case nn::LayerKind::kRelu:
                entry.op = PlanOp::kRelu;
                break;
            case nn::LayerKind::kMaxPool: {
                const auto& pool = static_cast<const nn::MaxPool2d&>(layer);
                require(shape.size() == 3, "pooling after flatten is unsupported");
                entry.op = PlanOp::kMaxPool;
                entry.pool_kernel = pool.kernel();
                entry.pool_stride = pool.stride();
                shape = pooled_shape(shape, pool.kernel(), pool.stride(), i);
                break;
            }
            case nn::LayerKind::kAvgPool: {
                const auto& pool = static_cast<const nn::AvgPool2d&>(layer);
                require(shape.size() == 3, "pooling after flatten is unsupported");
                entry.op = PlanOp::kAvgPool;
                entry.pool_kernel = pool.kernel();
                entry.pool_stride = pool.stride();
                shape = pooled_shape(shape, pool.kernel(), pool.stride(), i);
                break;
            }
            case nn::LayerKind::kGlobalAvgPool:
                require(shape.size() == 3, "global-avgpool requires a spatial input");
                entry.op = PlanOp::kGlobalAvgPool;
                shape = {shape[0]};
                break;
            case nn::LayerKind::kFlatten:
                entry.op = PlanOp::kFlatten;
                shape = {shape_numel(shape)};
                break;
            case nn::LayerKind::kBatchNorm:
                fail("batch-norm layers must be folded before planning "
                     "(Graph::fold_batch_norms)");
            default:
                fail("layer kind not supported under MPC: " + layer.describe());
        }
        entry.out_shape = shape;
        shapes[i] = shape;
        plan.push_back(std::move(entry));
    }
    return plan;
}

std::vector<ServerLayerData> extract_server_data(const nn::Graph& model, std::size_t end,
                                                 const FixedPointFormat& fmt) {
    std::vector<ServerLayerData> data(end);
    for (std::size_t i = 0; i < end; ++i) {
        if (model.is_add(i)) continue;  // residual adds carry no weights
        const nn::Layer& layer = model.layer(i);
        if (layer.kind() == nn::LayerKind::kConv2d) {
            const auto& conv = static_cast<const nn::Conv2d&>(model.layer(i));
            const Tensor& w = conv.weight().value;
            data[i].weights.resize(static_cast<std::size_t>(w.numel()));
            for (std::int64_t j = 0; j < w.numel(); ++j)
                data[i].weights[static_cast<std::size_t>(j)] = fmt.encode(w[j]);
            const Tensor& b = conv.bias().value;
            if (b.numel() == conv.out_channels()) {
                data[i].bias2f.resize(static_cast<std::size_t>(b.numel()));
                for (std::int64_t j = 0; j < b.numel(); ++j)
                    data[i].bias2f[static_cast<std::size_t>(j)] =
                        fmt.encode(b[j]) << fmt.frac_bits;
            }
        } else if (layer.kind() == nn::LayerKind::kLinear) {
            const auto& fc = static_cast<const nn::Linear&>(model.layer(i));
            const Tensor& w = fc.weight().value;
            data[i].weights.resize(static_cast<std::size_t>(w.numel()));
            for (std::int64_t j = 0; j < w.numel(); ++j)
                data[i].weights[static_cast<std::size_t>(j)] = fmt.encode(w[j]);
            const Tensor& b = fc.bias().value;
            if (b.numel() == fc.out_features()) {
                data[i].bias2f.resize(static_cast<std::size_t>(b.numel()));
                for (std::int64_t j = 0; j < b.numel(); ++j)
                    data[i].bias2f[static_cast<std::size_t>(j)] =
                        fmt.encode(b[j]) << fmt.frac_bits;
            }
        }
    }
    return data;
}

std::vector<LayerCache> precompute_layer_caches(const std::vector<LayerPlan>& plan,
                                                const std::vector<ServerLayerData>& data,
                                                const he::BfvContext& bfv) {
    require(data.empty() || plan.size() == data.size(), "plan/server-data length mismatch");
    std::vector<LayerCache> caches(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const LayerPlan& p = plan[i];
        std::span<const Ring> weights, bias2f;  // empty: the client's cache
        if (!data.empty()) {
            weights = data[i].weights;
            bias2f = data[i].bias2f;
        }
        if (p.op == PlanOp::kConv) {
            caches[i].conv = std::make_unique<mpc::ConvLayerCache>(bfv, p.geo, weights, bias2f);
        } else if (p.op == PlanOp::kLinear) {
            caches[i].matvec = std::make_unique<mpc::MatVecLayerCache>(
                bfv, p.in_features, p.out_features, weights, bias2f);
        }
    }
    return caches;
}

std::size_t count_fss_comparisons(const std::vector<LayerPlan>& plan) {
    std::size_t count = 0;
    for (const LayerPlan& p : plan) {
        if (p.op == PlanOp::kRelu) {
            count += static_cast<std::size_t>(shape_numel(p.out_shape));
        } else if (p.op == PlanOp::kMaxPool) {
            const auto k2 = static_cast<std::size_t>(p.pool_kernel * p.pool_kernel);
            count += static_cast<std::size_t>(shape_numel(p.out_shape)) * (k2 - 1);
        }
    }
    return count;
}

}  // namespace c2pi::pi
