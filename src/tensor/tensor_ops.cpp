#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace c2pi::ops {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b) {
    require(a.same_shape(b), "elementwise op requires matching shapes");
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b);
    Tensor out(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] + b[i];
    return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b);
    Tensor out(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] - b[i];
    return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b);
    Tensor out(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] * b[i];
    return out;
}

Tensor scale(const Tensor& a, float s) {
    Tensor out(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = a[i] * s;
    return out;
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
    check_same_shape(x, y);
    for (std::int64_t i = 0; i < x.numel(); ++i) y[i] += alpha * x[i];
}

float sum(const Tensor& a) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i) acc += a[i];
    return static_cast<float>(acc);
}

float mean(const Tensor& a) {
    require(a.numel() > 0, "mean of empty tensor");
    return sum(a) / static_cast<float>(a.numel());
}

float max_abs(const Tensor& a) {
    float m = 0.0F;
    for (std::int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(a[i]));
    return m;
}

double squared_distance(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b);
    double acc = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
        acc += d * d;
    }
    return acc;
}

Tensor clamp(const Tensor& a, float lo, float hi) {
    Tensor out(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) out[i] = std::clamp(a[i], lo, hi);
    return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
    require(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    require(b.dim(0) == k, "matmul inner dims must agree");
    const std::int64_t n = b.dim(1);
    Tensor c({m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    // ikj loop order: streams B rows, accumulates into C row — cache friendly.
    for (std::int64_t i = 0; i < m; ++i) {
        float* crow = pc + i * n;
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float aval = pa[i * k + kk];
            if (aval == 0.0F) continue;
            const float* brow = pb + kk * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
        }
    }
    return c;
}

Tensor transpose2d(const Tensor& a) {
    require(a.rank() == 2, "transpose2d expects rank-2 tensor");
    const std::int64_t m = a.dim(0);
    const std::int64_t n = a.dim(1);
    Tensor t({n, m});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
    return t;
}

Tensor im2col(const Tensor& x, const ConvSpec& spec) {
    require(x.rank() == 4, "im2col expects NCHW input");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const std::int64_t oh = spec.out_dim(h), ow = spec.out_dim(w);
    require(oh > 0 && ow > 0, "conv output dims must be positive");
    const std::int64_t patch = c * spec.kernel * spec.kernel;
    Tensor cols({n, patch, oh * ow});
    for (std::int64_t b = 0; b < n; ++b) {
        float* dst = cols.data() + b * patch * oh * ow;
        for (std::int64_t ch = 0; ch < c; ++ch) {
            for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
                for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                    const std::int64_t row = (ch * spec.kernel + ky) * spec.kernel + kx;
                    for (std::int64_t oy = 0; oy < oh; ++oy) {
                        const std::int64_t iy = oy * spec.stride - spec.pad + ky * spec.dilation;
                        for (std::int64_t ox = 0; ox < ow; ++ox) {
                            const std::int64_t ix = ox * spec.stride - spec.pad + kx * spec.dilation;
                            float v = 0.0F;
                            if (iy >= 0 && iy < h && ix >= 0 && ix < w) v = x.at(b, ch, iy, ix);
                            dst[row * oh * ow + oy * ow + ox] = v;
                        }
                    }
                }
            }
        }
    }
    return cols;
}

Tensor col2im(const Tensor& cols, const Shape& x_shape, const ConvSpec& spec) {
    require(cols.rank() == 3 && x_shape.size() == 4, "col2im shape mismatch");
    const std::int64_t n = x_shape[0], c = x_shape[1], h = x_shape[2], w = x_shape[3];
    const std::int64_t oh = spec.out_dim(h), ow = spec.out_dim(w);
    Tensor x(Shape{n, c, h, w});
    for (std::int64_t b = 0; b < n; ++b) {
        const float* src = cols.data() + b * (c * spec.kernel * spec.kernel) * oh * ow;
        for (std::int64_t ch = 0; ch < c; ++ch) {
            for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
                for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                    const std::int64_t row = (ch * spec.kernel + ky) * spec.kernel + kx;
                    for (std::int64_t oy = 0; oy < oh; ++oy) {
                        const std::int64_t iy = oy * spec.stride - spec.pad + ky * spec.dilation;
                        if (iy < 0 || iy >= h) continue;
                        for (std::int64_t ox = 0; ox < ow; ++ox) {
                            const std::int64_t ix = ox * spec.stride - spec.pad + kx * spec.dilation;
                            if (ix < 0 || ix >= w) continue;
                            x.at(b, ch, iy, ix) += src[row * oh * ow + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    return x;
}

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& bias, const ConvSpec& spec) {
    require(x.rank() == 4 && w.rank() == 4, "conv2d expects NCHW input and OIKK weights");
    require(w.dim(1) == x.dim(1), "conv2d channel mismatch");
    require(w.dim(2) == spec.kernel && w.dim(3) == spec.kernel, "conv2d kernel size mismatch");
    const std::int64_t n = x.dim(0), o = w.dim(0);
    const std::int64_t oh = spec.out_dim(x.dim(2)), ow = spec.out_dim(x.dim(3));
    const std::int64_t patch = w.dim(1) * spec.kernel * spec.kernel;
    const Tensor cols = im2col(x, spec);
    const Tensor wmat = w.reshaped({o, patch});
    Tensor y({n, o, oh, ow});
    for (std::int64_t b = 0; b < n; ++b) {
        const Tensor colb({patch, oh * ow},
                          std::vector<float>(cols.data() + b * patch * oh * ow,
                                             cols.data() + (b + 1) * patch * oh * ow));
        const Tensor yb = matmul(wmat, colb);  // [o, oh*ow]
        std::copy(yb.data(), yb.data() + o * oh * ow, y.data() + b * o * oh * ow);
    }
    if (!bias.empty()) {
        require(bias.numel() == o, "conv2d bias size mismatch");
        for (std::int64_t b = 0; b < n; ++b)
            for (std::int64_t oc = 0; oc < o; ++oc) {
                float* plane = y.data() + (b * o + oc) * oh * ow;
                for (std::int64_t i = 0; i < oh * ow; ++i) plane[i] += bias[oc];
            }
    }
    return y;
}

Tensor conv2d_backward_input(const Tensor& grad_y, const Tensor& w, const Shape& x_shape,
                             const ConvSpec& spec) {
    const std::int64_t n = grad_y.dim(0), o = grad_y.dim(1);
    const std::int64_t oh = grad_y.dim(2), ow = grad_y.dim(3);
    const std::int64_t patch = w.dim(1) * spec.kernel * spec.kernel;
    const Tensor wmat_t = transpose2d(w.reshaped({o, patch}));  // [patch, o]
    Tensor cols({n, patch, oh * ow});
    for (std::int64_t b = 0; b < n; ++b) {
        const Tensor gyb({o, oh * ow},
                         std::vector<float>(grad_y.data() + b * o * oh * ow,
                                            grad_y.data() + (b + 1) * o * oh * ow));
        const Tensor colb = matmul(wmat_t, gyb);  // [patch, oh*ow]
        std::copy(colb.data(), colb.data() + patch * oh * ow, cols.data() + b * patch * oh * ow);
    }
    return col2im(cols, x_shape, spec);
}

void conv2d_backward_params(const Tensor& grad_y, const Tensor& x, const ConvSpec& spec,
                            Tensor& grad_w, Tensor& grad_b) {
    const std::int64_t n = grad_y.dim(0), o = grad_y.dim(1);
    const std::int64_t oh = grad_y.dim(2), ow = grad_y.dim(3);
    const std::int64_t patch = grad_w.dim(1) * spec.kernel * spec.kernel;
    const Tensor cols = im2col(x, spec);
    for (std::int64_t b = 0; b < n; ++b) {
        const Tensor gyb({o, oh * ow},
                         std::vector<float>(grad_y.data() + b * o * oh * ow,
                                            grad_y.data() + (b + 1) * o * oh * ow));
        const Tensor colb_t = transpose2d(
            Tensor({patch, oh * ow}, std::vector<float>(cols.data() + b * patch * oh * ow,
                                                        cols.data() + (b + 1) * patch * oh * ow)));
        const Tensor gw = matmul(gyb, colb_t);  // [o, patch]
        for (std::int64_t i = 0; i < gw.numel(); ++i) grad_w[i] += gw[i];
    }
    if (!grad_b.empty()) {
        for (std::int64_t b = 0; b < n; ++b)
            for (std::int64_t oc = 0; oc < o; ++oc) {
                const float* plane = grad_y.data() + (b * o + oc) * oh * ow;
                float acc = 0.0F;
                for (std::int64_t i = 0; i < oh * ow; ++i) acc += plane[i];
                grad_b[oc] += acc;
            }
    }
}

PoolResult maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
    require(x.rank() == 4, "maxpool2d expects NCHW input");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const std::int64_t oh = (h - kernel) / stride + 1;
    const std::int64_t ow = (w - kernel) / stride + 1;
    require(oh > 0 && ow > 0, "maxpool output dims must be positive");
    PoolResult res;
    res.output = Tensor({n, c, oh, ow});
    res.argmax.assign(static_cast<std::size_t>(res.output.numel()), 0);
    std::int64_t oidx = 0;
    for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t oy = 0; oy < oh; ++oy)
                for (std::int64_t ox = 0; ox < ow; ++ox, ++oidx) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::int64_t best_idx = 0;
                    for (std::int64_t ky = 0; ky < kernel; ++ky)
                        for (std::int64_t kx = 0; kx < kernel; ++kx) {
                            const std::int64_t iy = oy * stride + ky;
                            const std::int64_t ix = ox * stride + kx;
                            const std::int64_t idx = ((b * c + ch) * h + iy) * w + ix;
                            if (x[idx] > best) {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    res.output[oidx] = best;
                    res.argmax[static_cast<std::size_t>(oidx)] = best_idx;
                }
    return res;
}

Tensor maxpool2d_backward(const Tensor& grad_y, const Shape& x_shape,
                          const std::vector<std::int64_t>& argmax) {
    Tensor gx(x_shape);
    for (std::int64_t i = 0; i < grad_y.numel(); ++i)
        gx[argmax[static_cast<std::size_t>(i)]] += grad_y[i];
    return gx;
}

Tensor avgpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
    require(x.rank() == 4, "avgpool2d expects NCHW input");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const std::int64_t oh = (h - kernel) / stride + 1;
    const std::int64_t ow = (w - kernel) / stride + 1;
    Tensor y({n, c, oh, ow});
    const float inv = 1.0F / static_cast<float>(kernel * kernel);
    for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t oy = 0; oy < oh; ++oy)
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    float acc = 0.0F;
                    for (std::int64_t ky = 0; ky < kernel; ++ky)
                        for (std::int64_t kx = 0; kx < kernel; ++kx)
                            acc += x.at(b, ch, oy * stride + ky, ox * stride + kx);
                    y.at(b, ch, oy, ox) = acc * inv;
                }
    return y;
}

Tensor avgpool2d_backward(const Tensor& grad_y, const Shape& x_shape, std::int64_t kernel,
                          std::int64_t stride) {
    Tensor gx(x_shape);
    const std::int64_t n = grad_y.dim(0), c = grad_y.dim(1);
    const std::int64_t oh = grad_y.dim(2), ow = grad_y.dim(3);
    const float inv = 1.0F / static_cast<float>(kernel * kernel);
    for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t oy = 0; oy < oh; ++oy)
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                    const float g = grad_y.at(b, ch, oy, ox) * inv;
                    for (std::int64_t ky = 0; ky < kernel; ++ky)
                        for (std::int64_t kx = 0; kx < kernel; ++kx)
                            gx.at(b, ch, oy * stride + ky, ox * stride + kx) += g;
                }
    return gx;
}

Tensor upsample_nearest(const Tensor& x, std::int64_t factor) {
    require(x.rank() == 4 && factor >= 1, "upsample expects NCHW input and factor >= 1");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    Tensor y({n, c, h * factor, w * factor});
    for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t oy = 0; oy < h * factor; ++oy)
                for (std::int64_t ox = 0; ox < w * factor; ++ox)
                    y.at(b, ch, oy, ox) = x.at(b, ch, oy / factor, ox / factor);
    return y;
}

Tensor upsample_nearest_backward(const Tensor& grad_y, std::int64_t factor) {
    const std::int64_t n = grad_y.dim(0), c = grad_y.dim(1);
    const std::int64_t oh = grad_y.dim(2), ow = grad_y.dim(3);
    Tensor gx({n, c, oh / factor, ow / factor});
    for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t oy = 0; oy < oh; ++oy)
                for (std::int64_t ox = 0; ox < ow; ++ox)
                    gx.at(b, ch, oy / factor, ox / factor) += grad_y.at(b, ch, oy, ox);
    return gx;
}

Tensor relu(const Tensor& x) {
    Tensor y(x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) y[i] = x[i] > 0.0F ? x[i] : 0.0F;
    return y;
}

Tensor relu_backward(const Tensor& grad_y, const Tensor& x) {
    Tensor gx(x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) gx[i] = x[i] > 0.0F ? grad_y[i] : 0.0F;
    return gx;
}

Tensor softmax(const Tensor& logits) {
    require(logits.rank() == 2, "softmax expects [batch, classes]");
    const std::int64_t n = logits.dim(0), k = logits.dim(1);
    Tensor p(logits.shape());
    for (std::int64_t i = 0; i < n; ++i) {
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t j = 0; j < k; ++j) mx = std::max(mx, logits.at(i, j));
        double denom = 0.0;
        for (std::int64_t j = 0; j < k; ++j) {
            p.at(i, j) = std::exp(logits.at(i, j) - mx);
            denom += p.at(i, j);
        }
        for (std::int64_t j = 0; j < k; ++j)
            p.at(i, j) = static_cast<float>(p.at(i, j) / denom);
    }
    return p;
}

LossResult softmax_cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
    const std::int64_t n = logits.dim(0), k = logits.dim(1);
    require(static_cast<std::int64_t>(labels.size()) == n, "label count mismatch");
    LossResult res;
    res.grad_logits = softmax(logits);
    double loss = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t y = labels[static_cast<std::size_t>(i)];
        require(y >= 0 && y < k, "label out of range");
        loss -= std::log(std::max(res.grad_logits.at(i, y), 1e-12F));
        res.grad_logits.at(i, y) -= 1.0F;
    }
    const float inv_n = 1.0F / static_cast<float>(n);
    for (std::int64_t i = 0; i < res.grad_logits.numel(); ++i) res.grad_logits[i] *= inv_n;
    res.loss = static_cast<float>(loss / n);
    return res;
}

LossResult mse_loss(const Tensor& a, const Tensor& b) {
    check_same_shape(a, b);
    LossResult res;
    res.grad_logits = Tensor(a.shape());
    double loss = 0.0;
    const float inv_n = 1.0F / static_cast<float>(a.numel());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        const float d = a[i] - b[i];
        loss += static_cast<double>(d) * d;
        res.grad_logits[i] = 2.0F * d * inv_n;
    }
    res.loss = static_cast<float>(loss / static_cast<double>(a.numel()));
    return res;
}

}  // namespace c2pi::ops
