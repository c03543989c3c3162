#include "he/encoding.hpp"

namespace c2pi::he {

ConvEncoder::ConvEncoder(const BfvContext& ctx, ConvGeometry geometry)
    : ctx_(&ctx), geo_(geometry) {
    const std::int64_t plane = geo_.padded_h() * geo_.padded_w();
    require(plane <= static_cast<std::int64_t>(ctx.n()),
            "padded image plane larger than ring degree");
    channels_per_group_ = std::min<std::int64_t>(
        geo_.in_channels, static_cast<std::int64_t>(ctx.n()) / plane);
    num_groups_ = (geo_.in_channels + channels_per_group_ - 1) / channels_per_group_;
}

std::vector<Ring> ConvEncoder::encode_input_group(std::span<const Ring> x, std::int64_t g) const {
    require(x.size() == static_cast<std::size_t>(geo_.in_channels * geo_.height * geo_.width),
            "conv input size mismatch");
    require(g >= 0 && g < num_groups_, "group index out of range");
    const std::int64_t hp = geo_.padded_h(), wp = geo_.padded_w();
    std::vector<Ring> poly(ctx_->n(), 0);
    const std::int64_t c_begin = g * channels_per_group_;
    const std::int64_t c_end = std::min(c_begin + channels_per_group_, geo_.in_channels);
    for (std::int64_t c = c_begin; c < c_end; ++c) {
        const std::int64_t local = c - c_begin;
        for (std::int64_t y = 0; y < geo_.height; ++y) {
            for (std::int64_t xx = 0; xx < geo_.width; ++xx) {
                const std::int64_t idx =
                    local * hp * wp + (y + geo_.pad) * wp + (xx + geo_.pad);
                poly[static_cast<std::size_t>(idx)] =
                    x[static_cast<std::size_t>((c * geo_.height + y) * geo_.width + xx)];
            }
        }
    }
    return poly;
}

std::vector<Ring> ConvEncoder::encode_weight(std::span<const Ring> w, std::int64_t g,
                                             std::int64_t o) const {
    require(w.size() == static_cast<std::size_t>(geo_.out_channels * geo_.in_channels *
                                                 geo_.kernel * geo_.kernel),
            "conv weight size mismatch");
    require(o >= 0 && o < geo_.out_channels, "output channel out of range");
    const std::int64_t hp = geo_.padded_h(), wp = geo_.padded_w();
    const std::int64_t k = geo_.kernel;
    std::vector<Ring> poly(ctx_->n(), 0);
    const std::int64_t c_begin = g * channels_per_group_;
    const std::int64_t c_end = std::min(c_begin + channels_per_group_, geo_.in_channels);
    for (std::int64_t c = c_begin; c < c_end; ++c) {
        const std::int64_t local = c - c_begin;
        for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t idx = (channels_per_group_ - 1 - local) * hp * wp +
                                         (k - 1 - ky) * wp + (k - 1 - kx);
                poly[static_cast<std::size_t>(idx)] =
                    w[static_cast<std::size_t>(((o * geo_.in_channels + c) * k + ky) * k + kx)];
            }
        }
    }
    return poly;
}

std::int64_t ConvEncoder::output_coeff_index(std::int64_t oy, std::int64_t ox) const {
    const std::int64_t hp = geo_.padded_h(), wp = geo_.padded_w();
    return (channels_per_group_ - 1) * hp * wp + (geo_.kernel - 1 + oy * geo_.stride) * wp +
           (geo_.kernel - 1 + ox * geo_.stride);
}

std::vector<Ring> ConvEncoder::gather_outputs(std::span<const Ring> poly) const {
    std::vector<Ring> out(static_cast<std::size_t>(geo_.out_h() * geo_.out_w()));
    std::size_t i = 0;
    for (std::int64_t oy = 0; oy < geo_.out_h(); ++oy)
        for (std::int64_t ox = 0; ox < geo_.out_w(); ++ox)
            out[i++] = poly[static_cast<std::size_t>(output_coeff_index(oy, ox))];
    return out;
}

// ---------------------------------------------------------------- MatVec ---

MatVecEncoder::MatVecEncoder(const BfvContext& ctx, std::int64_t in_features,
                             std::int64_t out_features)
    : ctx_(&ctx), in_(in_features), out_(out_features) {
    require(in_ > 0 && out_ > 0, "matvec dims must be positive");
    require(in_ <= static_cast<std::int64_t>(ctx.n()), "matvec input exceeds ring degree");
    outs_per_block_ = std::min<std::int64_t>(out_, static_cast<std::int64_t>(ctx.n()) / in_);
    num_blocks_ = (out_ + outs_per_block_ - 1) / outs_per_block_;
}

std::int64_t MatVecEncoder::rows_in_block(std::int64_t b) const {
    return std::min(outs_per_block_, out_ - b * outs_per_block_);
}

std::vector<Ring> MatVecEncoder::encode_input(std::span<const Ring> x) const {
    require(x.size() == static_cast<std::size_t>(in_), "matvec input size mismatch");
    std::vector<Ring> poly(ctx_->n(), 0);
    std::copy(x.begin(), x.end(), poly.begin());
    return poly;
}

std::vector<Ring> MatVecEncoder::encode_weight_block(std::span<const Ring> w, std::int64_t b) const {
    require(w.size() == static_cast<std::size_t>(in_ * out_), "matvec weight size mismatch");
    require(b >= 0 && b < num_blocks_, "block index out of range");
    std::vector<Ring> poly(ctx_->n(), 0);
    const std::int64_t rows = rows_in_block(b);
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t row = b * outs_per_block_ + r;
        for (std::int64_t j = 0; j < in_; ++j) {
            poly[static_cast<std::size_t>((r + 1) * in_ - 1 - j)] =
                w[static_cast<std::size_t>(row * in_ + j)];
        }
    }
    return poly;
}

std::int64_t MatVecEncoder::output_coeff_index(std::int64_t o_local) const {
    return (o_local + 1) * in_ - 1;
}

std::vector<Ring> MatVecEncoder::gather_outputs(std::span<const Ring> poly, std::int64_t b) const {
    std::vector<Ring> out(static_cast<std::size_t>(rows_in_block(b)));
    for (std::size_t r = 0; r < out.size(); ++r)
        out[r] = poly[static_cast<std::size_t>(output_coeff_index(static_cast<std::int64_t>(r)))];
    return out;
}

}  // namespace c2pi::he
