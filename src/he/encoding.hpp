#pragma once

/// \file encoding.hpp
/// Cheetah-style rotation-free coefficient packing (Huang et al. 2022).
///
/// Convolution: a group of input channels is packed into one plaintext
/// polynomial (channel-major, row-major inside a zero-padded channel);
/// the kernel of one output channel is packed reversed. One negacyclic
/// polynomial product then carries every output pixel of that (group,
/// output-channel) pair in known coefficient positions. Groups satisfy
/// C_g * Hp * Wp <= n so no wrapped (negated) term can collide with a
/// needed coefficient.
///
/// Fully-connected: x packed ascending, each weight row packed reversed,
/// floor(n / in) rows per polynomial; output o sits at coefficient
/// (o+1)*in - 1.

#include <cstdint>

#include "he/bfv.hpp"

namespace c2pi::he {

/// Geometry of one convolution layer (square kernel, no dilation — the
/// model zoo uses dilation only inside attacks, which never run under HE).
struct ConvGeometry {
    std::int64_t in_channels = 0;
    std::int64_t height = 0;     ///< unpadded input H
    std::int64_t width = 0;      ///< unpadded input W
    std::int64_t out_channels = 0;
    std::int64_t kernel = 3;
    std::int64_t stride = 1;
    std::int64_t pad = 1;

    [[nodiscard]] std::int64_t padded_h() const { return height + 2 * pad; }
    [[nodiscard]] std::int64_t padded_w() const { return width + 2 * pad; }
    [[nodiscard]] std::int64_t out_h() const { return (padded_h() - kernel) / stride + 1; }
    [[nodiscard]] std::int64_t out_w() const { return (padded_w() - kernel) / stride + 1; }

    /// Geometry is public protocol data (it travels inside the serialized
    /// pi::ModelArtifact); equality lets both parties verify agreement.
    friend bool operator==(const ConvGeometry&, const ConvGeometry&) = default;
};

class ConvEncoder {
public:
    ConvEncoder(const BfvContext& ctx, ConvGeometry geometry);

    [[nodiscard]] const ConvGeometry& geometry() const { return geo_; }
    /// Input channels per ciphertext group (last group zero-padded).
    [[nodiscard]] std::int64_t channels_per_group() const { return channels_per_group_; }
    [[nodiscard]] std::int64_t num_groups() const { return num_groups_; }

    /// Pack the input channels of group `g` (x laid out [C,H,W]) into a
    /// plaintext polynomial, applying the zero padding.
    [[nodiscard]] std::vector<Ring> encode_input_group(std::span<const Ring> x,
                                                       std::int64_t g) const;

    /// Pack kernel weights w (laid out [O,C,k,k], fixed-point encoded) for
    /// (group g, output channel o).
    [[nodiscard]] std::vector<Ring> encode_weight(std::span<const Ring> w, std::int64_t g,
                                                  std::int64_t o) const;

    /// Coefficient index of output pixel (oy, ox) in the product poly.
    [[nodiscard]] std::int64_t output_coeff_index(std::int64_t oy, std::int64_t ox) const;

    /// Gather output pixels of one output channel from a decrypted poly.
    [[nodiscard]] std::vector<Ring> gather_outputs(std::span<const Ring> poly) const;

private:
    const BfvContext* ctx_;
    ConvGeometry geo_;
    std::int64_t channels_per_group_ = 0;
    std::int64_t num_groups_ = 0;
};

class MatVecEncoder {
public:
    MatVecEncoder(const BfvContext& ctx, std::int64_t in_features, std::int64_t out_features);

    [[nodiscard]] std::int64_t in_features() const { return in_; }
    [[nodiscard]] std::int64_t out_features() const { return out_; }
    [[nodiscard]] std::int64_t outs_per_block() const { return outs_per_block_; }
    [[nodiscard]] std::int64_t num_blocks() const { return num_blocks_; }

    [[nodiscard]] std::vector<Ring> encode_input(std::span<const Ring> x) const;
    /// Weight rows of block b (W laid out [out, in] row-major).
    [[nodiscard]] std::vector<Ring> encode_weight_block(std::span<const Ring> w,
                                                        std::int64_t b) const;
    /// Coefficient index of local output row `o` within a block product.
    [[nodiscard]] std::int64_t output_coeff_index(std::int64_t o_local) const;

    /// Gather the rows of block b from a decrypted poly.
    [[nodiscard]] std::vector<Ring> gather_outputs(std::span<const Ring> poly,
                                                   std::int64_t b) const;

private:
    [[nodiscard]] std::int64_t rows_in_block(std::int64_t b) const;

    const BfvContext* ctx_;
    std::int64_t in_ = 0, out_ = 0;
    std::int64_t outs_per_block_ = 0;
    std::int64_t num_blocks_ = 0;
};

}  // namespace c2pi::he
