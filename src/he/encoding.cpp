#include "he/encoding.hpp"

namespace c2pi::he {

std::vector<Ring> LinearLayout::pack_inputs(std::span<const Ring> x, std::size_t n) const {
    require(x.size() == input_slot.size(), "linear-layer input size mismatch");
    std::vector<Ring> polys(static_cast<std::size_t>(inputs) * n, 0);
    for (std::size_t i = 0; i < x.size(); ++i) {
        const auto slot = static_cast<std::size_t>(input_slot[i]);
        require(slot < polys.size(), "layout built for a larger ring degree");
        polys[slot] = x[i];
    }
    return polys;
}

ConvEncoder::ConvEncoder(const BfvContext& ctx, ConvGeometry geometry)
    : ctx_(&ctx), geo_(geometry) {
    const auto n = static_cast<std::int64_t>(ctx.n());
    const std::int64_t wp = geo_.padded_w();
    const std::int64_t plane = geo_.padded_h() * wp;
    require(plane <= n, "padded image plane larger than ring degree");
    channels_per_group_ = std::min<std::int64_t>(geo_.in_channels, n / plane);
    layout_.inputs = (geo_.in_channels + channels_per_group_ - 1) / channels_per_group_;

    // Channel c is plane c % C_g of group c / C_g, each pixel shifted
    // inside the zero padding.
    for (std::int64_t c = 0; c < geo_.in_channels; ++c)
        for (std::int64_t y = 0; y < geo_.height; ++y)
            for (std::int64_t x = 0; x < geo_.width; ++x)
                layout_.input_slot.push_back((c / channels_per_group_) * n +
                                             (c % channels_per_group_) * plane +
                                             (y + geo_.pad) * wp + (x + geo_.pad));

    // Output pixel (oy, ox) is where the reversed kernel's last tap meets
    // the input window's last pixel, the same in every channel.
    const std::int64_t k = geo_.kernel;
    for (std::int64_t o = 0; o < geo_.out_channels; ++o) {
        layout_.response_begin.push_back(static_cast<std::int64_t>(layout_.output_coeff.size()));
        for (std::int64_t oy = 0; oy < geo_.out_h(); ++oy)
            for (std::int64_t ox = 0; ox < geo_.out_w(); ++ox)
                layout_.output_coeff.push_back((channels_per_group_ - 1) * plane +
                                               (k - 1 + oy * geo_.stride) * wp +
                                               (k - 1 + ox * geo_.stride));
    }
    layout_.response_begin.push_back(static_cast<std::int64_t>(layout_.output_coeff.size()));
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

// ---------------------------------------------------------------- MatVec ---

MatVecEncoder::MatVecEncoder(const BfvContext& ctx, std::int64_t in_features,
                             std::int64_t out_features)
    : ctx_(&ctx), in_(in_features), out_(out_features) {
    require(in_ > 0 && out_ > 0, "matvec dims must be positive");
    require(in_ <= static_cast<std::int64_t>(ctx.n()), "matvec input exceeds ring degree");
    outs_per_block_ = std::min<std::int64_t>(out_, static_cast<std::int64_t>(ctx.n()) / in_);
    layout_.inputs = 1;
    for (std::int64_t i = 0; i < in_; ++i) layout_.input_slot.push_back(i);
    for (std::int64_t row = 0; row < out_; ++row) {
        if (row % outs_per_block_ == 0) layout_.response_begin.push_back(row);
        layout_.output_coeff.push_back((row % outs_per_block_ + 1) * in_ - 1);
    }
    layout_.response_begin.push_back(out_);
}

std::vector<Ring> MatVecEncoder::encode_weight_block(std::span<const Ring> w, std::int64_t b) const {
    require(w.size() == static_cast<std::size_t>(in_ * out_), "matvec weight size mismatch");
    require(b >= 0 && b < layout_.responses(), "block index out of range");
    std::vector<Ring> poly(ctx_->n(), 0);
    const std::int64_t row_begin = layout_.response_begin[static_cast<std::size_t>(b)];
    const std::int64_t row_end = layout_.response_begin[static_cast<std::size_t>(b + 1)];
    for (std::int64_t row = row_begin; row < row_end; ++row) {
        const std::int64_t r = row - row_begin;
        for (std::int64_t j = 0; j < in_; ++j) {
            poly[static_cast<std::size_t>((r + 1) * in_ - 1 - j)] =
                w[static_cast<std::size_t>(row * in_ + j)];
        }
    }
    return poly;
}

}  // namespace c2pi::he
