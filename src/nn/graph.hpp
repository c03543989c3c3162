#pragma once

/// \file graph.hpp
/// DAG model IR — the representation shared by plaintext inference,
/// training, the IDPA attacks, the PI engines and the C2PI boundary
/// search.
///
/// A Graph is a topologically-ordered list of nodes. Each node is either
/// a Layer applied to the output of one earlier node, or an explicit
/// residual-add joining two earlier nodes. Node -1 (kInput) denotes the
/// graph input. Edges always point backward, so evaluation is a single
/// forward sweep; Sequential (sequential.hpp) is the trivially-linear
/// special case every pre-DAG call site was written against.
///
/// Cut-point convention (paper §II "Notations"): linear ops (Conv2d /
/// Linear) are numbered 1..n; "layer 3" is the third linear op and "layer
/// 3.5" is the ReLU right after it. A CutPoint names the last *crypto*
/// operation; flat_cut_index() translates it into the index of the last
/// node evaluated under MPC. On a DAG, only cuts at articulation points
/// (no skip edge crossing the cut — is_articulation()) give the
/// crypto-clear split a well-defined boundary activation.

#include <functional>
#include <optional>

#include "nn/layer.hpp"

namespace c2pi::nn {

/// Boundary position in the paper's numbering scheme.
struct CutPoint {
    std::int64_t linear_index = 1;  ///< 1-based index of a Conv2d/Linear op
    bool after_relu = false;        ///< true = the ".5" position

    [[nodiscard]] double as_decimal() const {
        return static_cast<double>(linear_index) + (after_relu ? 0.5 : 0.0);
    }
    friend bool operator==(const CutPoint&, const CutPoint&) = default;
};

class Graph {
public:
    /// Edge value naming the graph input rather than a node.
    static constexpr std::int64_t kInput = -1;

    Graph() = default;
    Graph(Graph&&) = default;
    Graph& operator=(Graph&&) = default;

    /// Append a layer consuming the previous node (chain order); returns
    /// it for convenient chaining/configuration.
    Layer& add(LayerPtr layer);

    template <typename T, typename... Args>
    T& emplace(Args&&... args) {
        auto layer = std::make_unique<T>(std::forward<Args>(args)...);
        T& ref = *layer;
        add(std::move(layer));
        return ref;
    }

    /// Append a layer consuming an explicit earlier node (or kInput);
    /// returns the new node's index.
    std::int64_t add_node(LayerPtr layer, std::int64_t input);
    /// Append a residual add joining two earlier nodes; returns the new
    /// node's index. Free under additive secret sharing (plan.cpp).
    std::int64_t add_residual(std::int64_t a, std::int64_t b);

    /// Index of the most recently appended node (kInput when empty).
    [[nodiscard]] std::int64_t last() const {
        return static_cast<std::int64_t>(nodes_.size()) - 1;
    }

    [[nodiscard]] std::size_t size() const { return nodes_.size(); }
    /// True when node i is a residual add (it has no Layer).
    [[nodiscard]] bool is_add(std::size_t i) const { return nodes_.at(i).layer == nullptr; }
    [[nodiscard]] Layer& layer(std::size_t i);
    [[nodiscard]] const Layer& layer(std::size_t i) const;
    /// First input edge of node i (kInput = the graph input).
    [[nodiscard]] std::int64_t input0(std::size_t i) const { return nodes_.at(i).input0; }
    /// Second input edge (adds only; kInput-1 never occurs — it is -1
    /// for non-add nodes, meaning "unused").
    [[nodiscard]] std::int64_t input1(std::size_t i) const { return nodes_.at(i).input1; }

    /// True when every chain edge is i-1 and no skip edges exist — such a
    /// graph is behaviorally a Sequential.
    [[nodiscard]] bool is_linear_chain() const;
    /// True when no edge from a later node reaches back past node i, i.e.
    /// cutting after node i separates the graph. Only articulation points
    /// are valid crypto-clear boundaries.
    [[nodiscard]] bool is_articulation(std::size_t i) const;

    /// Full forward pass.
    [[nodiscard]] Tensor forward(const Tensor& x);
    /// Forward through nodes [begin, end); x stands in for node begin-1.
    /// Fails if an edge inside the range reaches back past begin-1.
    [[nodiscard]] Tensor forward_range(std::size_t begin, std::size_t end, const Tensor& x);
    /// Inference-only full forward: no activation caches are written, so
    /// a const model can serve many threads concurrently (Layer::infer).
    [[nodiscard]] Tensor infer(const Tensor& x) const;
    /// Inference-only forward through nodes [begin, end).
    [[nodiscard]] Tensor infer_range(std::size_t begin, std::size_t end, const Tensor& x) const;
    /// Backward through nodes [begin, end) in reverse order; returns
    /// dL/d(input of node begin-1's consumer), accumulating fan-out
    /// gradients across skip edges. forward_range over the same range
    /// must have run immediately before.
    [[nodiscard]] Tensor backward_range(std::size_t begin, std::size_t end, const Tensor& grad);

    [[nodiscard]] std::vector<Parameter*> parameters();
    void zero_grad();

    /// Node indices of all linear ops (Conv2d / Linear), in order.
    [[nodiscard]] std::vector<std::size_t> linear_op_indices() const;
    /// Number of linear ops.
    [[nodiscard]] std::int64_t num_linear_ops() const;

    /// Node index of the last layer covered by the cut (the conv/linear op
    /// itself, or its directly-following ReLU for the ".5" position).
    [[nodiscard]] std::size_t flat_cut_index(const CutPoint& cut) const;

    /// Output of the first `cut` operations for input x (the paper's M_l(x)).
    [[nodiscard]] Tensor forward_prefix(const CutPoint& cut, const Tensor& x);
    /// Remaining network applied to an intermediate activation.
    [[nodiscard]] Tensor forward_suffix(const CutPoint& cut, const Tensor& intermediate);

    /// Fold every BatchNorm2d into the Conv2d feeding it (compile-time:
    /// W'[o] = W[o]·γ/σ, b' = (b−μ)·γ/σ + β) and drop the BN nodes.
    /// Requires each BN's producer to be a Conv2d with bias that no other
    /// node consumes. Inference is unchanged up to float rounding; the PI
    /// planner only accepts BN-free graphs, so residual zoo models fold
    /// before compilation.
    void fold_batch_norms();

    /// Human-readable architecture listing (skip edges annotated).
    [[nodiscard]] std::string describe() const;

private:
    struct Node {
        LayerPtr layer;               // null = residual add
        std::int64_t input0 = kInput;
        std::int64_t input1 = -1;     // second operand (adds only)
    };

    std::vector<Node> nodes_;
};

}  // namespace c2pi::nn
