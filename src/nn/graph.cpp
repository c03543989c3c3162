#include "nn/graph.hpp"

#include <cmath>
#include <sstream>

#include "nn/layers.hpp"
#include "tensor/tensor_ops.hpp"

namespace c2pi::nn {

Layer& Graph::add(LayerPtr layer) {
    require(layer != nullptr, "cannot add null layer");
    nodes_.push_back({std::move(layer), last(), -1});
    return *nodes_.back().layer;
}

std::int64_t Graph::add_node(LayerPtr layer, std::int64_t input) {
    require(layer != nullptr, "cannot add null layer");
    require(input >= kInput && input <= last(), "graph edge must name an earlier node");
    nodes_.push_back({std::move(layer), input, -1});
    return last();
}

std::int64_t Graph::add_residual(std::int64_t a, std::int64_t b) {
    require(a >= 0 && a <= last() && b >= 0 && b <= last(),
            "residual add operands must name earlier nodes");
    nodes_.push_back({nullptr, a, b});
    return last();
}

Layer& Graph::layer(std::size_t i) {
    require(!is_add(i), "node is a residual add, not a layer");
    return *nodes_[i].layer;
}

const Layer& Graph::layer(std::size_t i) const {
    require(!is_add(i), "node is a residual add, not a layer");
    return *nodes_[i].layer;
}

bool Graph::is_linear_chain() const {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        if (n.layer == nullptr) return false;
        if (n.input0 != static_cast<std::int64_t>(i) - 1) return false;
    }
    return true;
}

bool Graph::is_articulation(std::size_t i) const {
    require(i < nodes_.size(), "is_articulation out of bounds");
    const auto cut = static_cast<std::int64_t>(i);
    for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
        if (nodes_[j].input0 < cut) return false;
        if (nodes_[j].layer == nullptr && nodes_[j].input1 < cut) return false;
    }
    return true;
}

namespace {

/// Walk nodes [begin, end) with `x` standing in for node begin-1. The
/// per-node evaluation is a callback so forward (caching) and infer
/// (const) share the range/edge validation.
template <typename Eval>
Tensor walk_range(std::size_t begin, std::size_t end, std::size_t total, const Tensor& x,
                  Eval&& eval) {
    require(begin <= end && end <= total, "graph range out of bounds");
    if (begin == end) return x;
    const auto base = static_cast<std::int64_t>(begin) - 1;
    std::vector<Tensor> vals(end - begin);
    const auto value_of = [&](std::int64_t src) -> const Tensor& {
        require(src >= base,
                "graph range crosses a skip edge: the cut is not an articulation point");
        return src == base ? x : vals[static_cast<std::size_t>(src - base) - 1];
    };
    for (std::size_t i = begin; i < end; ++i) vals[i - begin] = eval(i, value_of);
    return std::move(vals.back());
}

}  // namespace

Tensor Graph::forward(const Tensor& x) { return forward_range(0, nodes_.size(), x); }

Tensor Graph::forward_range(std::size_t begin, std::size_t end, const Tensor& x) {
    return walk_range(begin, end, nodes_.size(), x, [&](std::size_t i, const auto& value_of) {
        Node& n = nodes_[i];
        return n.layer ? n.layer->forward(value_of(n.input0))
                       : ops::add(value_of(n.input0), value_of(n.input1));
    });
}

Tensor Graph::infer(const Tensor& x) const { return infer_range(0, nodes_.size(), x); }

Tensor Graph::infer_range(std::size_t begin, std::size_t end, const Tensor& x) const {
    return walk_range(begin, end, nodes_.size(), x, [&](std::size_t i, const auto& value_of) {
        const Node& n = nodes_[i];
        return n.layer ? n.layer->infer(value_of(n.input0))
                       : ops::add(value_of(n.input0), value_of(n.input1));
    });
}

Tensor Graph::backward_range(std::size_t begin, std::size_t end, const Tensor& grad) {
    require(begin <= end && end <= nodes_.size(), "backward_range out of bounds");
    if (begin == end) return grad;
    const auto base = static_cast<std::int64_t>(begin) - 1;
    std::vector<Tensor> grads(end - begin);
    Tensor input_grad;
    const auto accumulate = [&](std::int64_t dst, const Tensor& g) {
        require(dst >= base,
                "graph range crosses a skip edge: the cut is not an articulation point");
        Tensor& slot = dst == base ? input_grad : grads[static_cast<std::size_t>(dst - base) - 1];
        if (slot.empty()) {
            slot = g;
        } else {
            ops::axpy(1.0F, g, slot);  // fan-out: skip edges sum gradients
        }
    };
    grads.back() = grad;
    for (std::size_t i = end; i-- > begin;) {
        Tensor g = std::move(grads[i - begin]);
        if (g.empty()) continue;  // node output unused inside the range
        Node& n = nodes_[i];
        if (n.layer) {
            accumulate(n.input0, n.layer->backward(g));
        } else {
            accumulate(n.input0, g);
            accumulate(n.input1, g);
        }
    }
    require(!input_grad.empty(), "backward_range produced no input gradient");
    return input_grad;
}

std::vector<Parameter*> Graph::parameters() {
    std::vector<Parameter*> params;
    for (auto& n : nodes_)
        if (n.layer) n.layer->collect_parameters(params);
    return params;
}

void Graph::zero_grad() {
    for (auto* p : parameters()) p->zero_grad();
}

std::vector<std::size_t> Graph::linear_op_indices() const {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].layer == nullptr) continue;
        const auto k = nodes_[i].layer->kind();
        if (k == LayerKind::kConv2d || k == LayerKind::kLinear) idx.push_back(i);
    }
    return idx;
}

std::int64_t Graph::num_linear_ops() const {
    return static_cast<std::int64_t>(linear_op_indices().size());
}

std::size_t Graph::flat_cut_index(const CutPoint& cut) const {
    const auto idx = linear_op_indices();
    require(cut.linear_index >= 1 &&
                cut.linear_index <= static_cast<std::int64_t>(idx.size()),
            "cut linear_index out of range");
    std::size_t flat = idx[static_cast<std::size_t>(cut.linear_index - 1)];
    if (cut.after_relu) {
        require(flat + 1 < nodes_.size() && nodes_[flat + 1].layer != nullptr &&
                    nodes_[flat + 1].layer->kind() == LayerKind::kRelu &&
                    nodes_[flat + 1].input0 == static_cast<std::int64_t>(flat),
                "cut names a .5 position but no ReLU follows that linear op");
        ++flat;
    }
    return flat;
}

Tensor Graph::forward_prefix(const CutPoint& cut, const Tensor& x) {
    return forward_range(0, flat_cut_index(cut) + 1, x);
}

Tensor Graph::forward_suffix(const CutPoint& cut, const Tensor& intermediate) {
    return forward_range(flat_cut_index(cut) + 1, nodes_.size(), intermediate);
}

void Graph::fold_batch_norms() {
    // A BN folds into its producer conv only if that conv feeds nothing
    // else: rescaling the conv's weights must not change another branch.
    std::vector<int> consumers(nodes_.size(), 0);
    for (const Node& n : nodes_) {
        if (n.input0 >= 0) ++consumers[static_cast<std::size_t>(n.input0)];
        if (n.layer == nullptr && n.input1 >= 0)
            ++consumers[static_cast<std::size_t>(n.input1)];
    }

    std::vector<Node> folded;
    folded.reserve(nodes_.size());
    // remap[old+1] = new index of old node (+1 slot so kInput maps to itself).
    std::vector<std::int64_t> remap(nodes_.size() + 1);
    remap[0] = kInput;
    const auto mapped = [&](std::int64_t old) { return remap[static_cast<std::size_t>(old) + 1]; };

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        Node& n = nodes_[i];
        if (n.layer != nullptr && n.layer->kind() == LayerKind::kBatchNorm) {
            // The producer's layer already moved into `folded`; resolve it
            // through the remap rather than the (moved-from) nodes_ slot.
            const std::int64_t src = n.input0 >= 0 ? mapped(n.input0) : kInput;
            require(src >= 0 && folded[static_cast<std::size_t>(src)].layer != nullptr &&
                        folded[static_cast<std::size_t>(src)].layer->kind() ==
                            LayerKind::kConv2d,
                    "batch-norm folding: BN must directly follow a Conv2d");
            require(consumers[static_cast<std::size_t>(n.input0)] == 1,
                    "batch-norm folding: the conv feeding a BN must have no other consumer");
            auto& bn = static_cast<BatchNorm2d&>(*n.layer);
            auto& conv = static_cast<Conv2d&>(*folded[static_cast<std::size_t>(src)].layer);
            Tensor& w = conv.weight().value;
            Tensor& b = conv.bias().value;
            const std::int64_t out = conv.out_channels();
            require(b.numel() == out, "batch-norm folding: conv must carry a bias");
            require(bn.gamma().value.numel() == out,
                    "batch-norm folding: channel counts disagree");
            const std::int64_t per_out = w.numel() / out;
            for (std::int64_t o = 0; o < out; ++o) {
                const float inv_std =
                    1.0F / std::sqrt(bn.running_var()[o] + bn.epsilon());
                const float scale = bn.gamma().value[o] * inv_std;
                for (std::int64_t k = 0; k < per_out; ++k) w[o * per_out + k] *= scale;
                b[o] = (b[o] - bn.running_mean()[o]) * scale + bn.beta().value[o];
            }
            // The BN node vanishes: it aliases its (folded) conv.
            remap[i + 1] = mapped(n.input0);
            continue;
        }
        remap[i + 1] = static_cast<std::int64_t>(folded.size());
        const bool add_node = n.layer == nullptr;
        folded.push_back({std::move(n.layer), mapped(n.input0),
                          add_node ? mapped(n.input1) : -1});
    }
    nodes_ = std::move(folded);
}

std::string Graph::describe() const {
    std::ostringstream os;
    std::int64_t linear_id = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        os << i << ": ";
        if (n.layer == nullptr) {
            os << "Add(" << n.input0 << ", " << n.input1 << ')';
        } else {
            os << n.layer->describe();
            const auto k = n.layer->kind();
            if (n.input0 != static_cast<std::int64_t>(i) - 1) os << "   [<- " << n.input0 << ']';
            if (k == LayerKind::kConv2d || k == LayerKind::kLinear)
                os << "   [linear op " << ++linear_id << ']';
        }
        os << '\n';
    }
    return os.str();
}

}  // namespace c2pi::nn
