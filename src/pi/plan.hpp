#pragma once

/// \file plan.hpp
/// Backend-agnostic execution plan for the crypto layers. The plan holds
/// only architecture/geometry (what the paper allows the client to learn
/// about the crypto layers); weights stay inside ServerModelData, which
/// only the server thread reads. The per-layer HE precompute (encoder
/// geometry + NTT-form weight plaintexts) sits next to it in LayerCache,
/// built once per CompiledModel so serving never re-runs a weight NTT.

#include <memory>

#include "he/encoding.hpp"
#include "mpc/linear.hpp"
#include "mpc/ring_tensor.hpp"
#include "nn/graph.hpp"

namespace c2pi::pi {

/// Byte values are part of the artifact wire format (docs/PROTOCOL.md
/// §3): new ops append, existing values never change.
enum class PlanOp {
    kConv,
    kLinear,
    kRelu,
    kMaxPool,
    kAvgPool,
    kFlatten,
    kGlobalAvgPool,
    kResidualAdd,
};

struct LayerPlan {
    PlanOp op;
    he::ConvGeometry geo;               ///< kConv
    std::int64_t in_features = 0;       ///< kLinear
    std::int64_t out_features = 0;      ///< kLinear
    std::int64_t pool_kernel = 0;       ///< pooling ops
    std::int64_t pool_stride = 0;
    Shape in_shape;                     ///< [C,H,W] or [F]
    Shape out_shape;
    /// DAG edges: plan-entry index (or -1 = the boundary input) whose
    /// output this entry consumes. input1 is -1 except for kResidualAdd.
    /// A chain plan has input0 == i-1 everywhere.
    std::int64_t input0 = -1;
    std::int64_t input1 = -1;

    /// Field-for-field equality: lets CompiledModel verify that a shipped
    /// ModelArtifact matches a locally-planned model exactly.
    friend bool operator==(const LayerPlan&, const LayerPlan&) = default;
};

/// Typed error for pooling geometry that does not tile its input: the
/// seed planner silently floored (shape - kernel) / stride, which made
/// the plan's out_shape disagree with what nn::ops actually computes.
/// Raised at the planning API boundary with the offending node index.
struct PoolGeometryError final : Error {
    PoolGeometryError(std::size_t layer_index, const Shape& in_shape, std::int64_t kernel,
                      std::int64_t stride);
    std::size_t layer_index;
};

/// Per-layer server secrets for the crypto layers.
struct ServerLayerData {
    std::vector<Ring> weights;  ///< fixed-point encoded (scale f)
    std::vector<Ring> bias2f;   ///< bias at scale 2f (empty if no bias)
};

/// Per-layer input-independent HE precompute: exactly one of the members
/// is set for kConv/kLinear plan entries, both are null otherwise. The
/// caches borrow the ServerLayerData weight spans, so the two vectors
/// live (and die) together inside CompiledModel.
struct LayerCache {
    std::unique_ptr<mpc::ConvLayerCache> conv;
    std::unique_ptr<mpc::MatVecLayerCache> matvec;

    /// The set member, as the one linear protocol reads it.
    [[nodiscard]] const mpc::LinearLayerCache& linear() const {
        if (conv != nullptr) return *conv;
        require(matvec != nullptr, "plan entry has no HE linear-layer cache");
        return *matvec;
    }
};

/// Plan graph nodes [0, end) of the model for an input of shape [C,H,W].
/// Plan entry i mirrors node i, including its DAG edges; residual adds
/// become kResidualAdd entries (free under additive sharing — executed
/// locally on shares). Batch-norm nodes are rejected: fold them first
/// (Graph::fold_batch_norms). Throws PoolGeometryError for pooling that
/// does not tile its input.
[[nodiscard]] std::vector<LayerPlan> plan_layers(const nn::Graph& model, const Shape& input_chw,
                                                 std::size_t end);

/// Extract ring-encoded weights for every kConv/kLinear plan entry
/// (entries for other ops are empty).
[[nodiscard]] std::vector<ServerLayerData> extract_server_data(const nn::Graph& model,
                                                               std::size_t end,
                                                               const FixedPointFormat& fmt);

/// Build the HE precompute for every crypto layer: encoder layouts and,
/// on the server, the NTT-form (Shoup-companioned) weight plaintexts.
/// `data` must outlive the returned caches. Empty `data` builds the
/// client's caches from the public plan alone: layouts only, no weight
/// NTTs and no PlainNtt memory. Runs the weight NTTs over the context's
/// thread pool when it has one.
[[nodiscard]] std::vector<LayerCache> precompute_layer_caches(
    const std::vector<LayerPlan>& plan, const std::vector<ServerLayerData>& data,
    const he::BfvContext& bfv);

/// Number of FSS comparisons one inference over this plan consumes: one
/// per ReLU output element, and kernel^2 - 1 per maxpool window (the
/// binary pairwise-max tournament). Both parties derive the kFss
/// preprocessing batch size from this, so the dealer's shipment and the
/// client's expectation agree by construction. The plan is public, so
/// the count is too.
[[nodiscard]] std::size_t count_fss_comparisons(const std::vector<LayerPlan>& plan);

}  // namespace c2pi::pi
