#pragma once

/// \file tensor_ops.hpp
/// Numeric kernels on Tensor: BLAS-lite matmul, im2col convolution,
/// pooling, activations and their backward passes. These are the only
/// compute kernels in the repo; nn layers and attacks are thin wrappers.

#include "tensor/tensor.hpp"

namespace c2pi::ops {

/// Spatial convolution hyper-parameters (square kernels/strides).
struct ConvSpec {
    std::int64_t kernel = 3;
    std::int64_t stride = 1;
    std::int64_t pad = 1;
    std::int64_t dilation = 1;

    [[nodiscard]] std::int64_t out_dim(std::int64_t in) const {
        const std::int64_t eff = dilation * (kernel - 1) + 1;
        return (in + 2 * pad - eff) / stride + 1;
    }
};

// -- elementwise -------------------------------------------------------------
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor scale(const Tensor& a, float s);
/// y += alpha * x
void axpy(float alpha, const Tensor& x, Tensor& y);

[[nodiscard]] float sum(const Tensor& a);
[[nodiscard]] float mean(const Tensor& a);
[[nodiscard]] float max_abs(const Tensor& a);
/// Squared L2 norm of (a - b).
[[nodiscard]] double squared_distance(const Tensor& a, const Tensor& b);

/// Clamp every element into [lo, hi].
[[nodiscard]] Tensor clamp(const Tensor& a, float lo, float hi);

// -- dense linear algebra -----------------------------------------------------
/// C[m,n] = A[m,k] * B[k,n]
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// B[n,m] = A[m,n]^T
[[nodiscard]] Tensor transpose2d(const Tensor& a);

// -- convolution ---------------------------------------------------------------
/// im2col: x[N,C,H,W] -> cols[N, C*k*k, OH*OW]
[[nodiscard]] Tensor im2col(const Tensor& x, const ConvSpec& spec);
/// col2im: inverse scatter-add of im2col, returning [N,C,H,W].
[[nodiscard]] Tensor col2im(const Tensor& cols, const Shape& x_shape, const ConvSpec& spec);

/// y[N,O,OH,OW] = conv(x[N,C,H,W], w[O,C,k,k]) + bias[O]
[[nodiscard]] Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                            const ConvSpec& spec);
/// Gradient w.r.t. input.
[[nodiscard]] Tensor conv2d_backward_input(const Tensor& grad_y, const Tensor& w,
                                           const Shape& x_shape, const ConvSpec& spec);
/// Gradients w.r.t. weights and bias (accumulated into grad_w / grad_b).
void conv2d_backward_params(const Tensor& grad_y, const Tensor& x, const ConvSpec& spec,
                            Tensor& grad_w, Tensor& grad_b);

// -- pooling -------------------------------------------------------------------
struct PoolResult {
    Tensor output;
    std::vector<std::int64_t> argmax;  ///< flat input index per output element (max pool only)
};
[[nodiscard]] PoolResult maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);
[[nodiscard]] Tensor maxpool2d_backward(const Tensor& grad_y, const Shape& x_shape,
                                        const std::vector<std::int64_t>& argmax);
[[nodiscard]] Tensor avgpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);
[[nodiscard]] Tensor avgpool2d_backward(const Tensor& grad_y, const Shape& x_shape,
                                        std::int64_t kernel, std::int64_t stride);

// -- resampling -----------------------------------------------------------------
/// Nearest-neighbour upsample by integer factor.
[[nodiscard]] Tensor upsample_nearest(const Tensor& x, std::int64_t factor);
[[nodiscard]] Tensor upsample_nearest_backward(const Tensor& grad_y, std::int64_t factor);

// -- activations / losses ---------------------------------------------------------
[[nodiscard]] Tensor relu(const Tensor& x);
[[nodiscard]] Tensor relu_backward(const Tensor& grad_y, const Tensor& x);

/// Row-wise softmax of logits[n, classes].
[[nodiscard]] Tensor softmax(const Tensor& logits);

/// Mean cross-entropy over the batch plus gradient w.r.t. logits.
struct LossResult {
    float loss = 0.0F;
    Tensor grad_logits;
};
[[nodiscard]] LossResult softmax_cross_entropy(const Tensor& logits,
                                               const std::vector<std::int64_t>& labels);

/// Mean squared error 1/n * ||a-b||^2 with gradient w.r.t. `a`.
[[nodiscard]] LossResult mse_loss(const Tensor& a, const Tensor& b);

}  // namespace c2pi::ops
