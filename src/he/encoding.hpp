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
///
/// The two kinds differ only in where the packing puts each value. Each
/// encoder records the input and output side of that as a LinearLayout
/// when it is built; the secure protocol (mpc/linear.hpp) runs every
/// layer from its layout and never looks at the layer kind. Only the
/// weight packers stay kind-specific.

#include <cstdint>
#include <utility>

#include "he/bfv.hpp"

namespace c2pi::he {

/// Where one HE linear layer's values live, as data. The client packs
/// input element i at `input_slot[i]` and encrypts `inputs` polynomials;
/// the server answers with one response per range of outputs, and output
/// element j is coefficient `output_coeff[j]` of its response.
struct LinearLayout {
    std::int64_t inputs = 0;                   ///< polynomials the client encrypts
    std::vector<std::int64_t> input_slot;      ///< input i -> poly * n + coefficient
    std::vector<std::int64_t> output_coeff;    ///< output j -> coefficient in its response
    std::vector<std::int64_t> response_begin;  ///< response r: outputs [begin[r], begin[r+1])

    [[nodiscard]] std::int64_t responses() const {
        return static_cast<std::int64_t>(response_begin.size()) - 1;
    }
    /// [begin, end) of the outputs response r carries.
    [[nodiscard]] std::pair<std::size_t, std::size_t> response_range(std::int64_t r) const {
        return {static_cast<std::size_t>(response_begin[static_cast<std::size_t>(r)]),
                static_cast<std::size_t>(response_begin[static_cast<std::size_t>(r + 1)])};
    }
    /// The client's plaintexts: `x` at its slots and zeros elsewhere,
    /// `inputs` polynomials of n coefficients back to back.
    [[nodiscard]] std::vector<Ring> pack_inputs(std::span<const Ring> x, std::size_t n) const;
};

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

/// Conv layout: input polynomial g holds channel group g; response o is
/// output channel o, its pixels row-major.
class ConvEncoder {
public:
    ConvEncoder(const BfvContext& ctx, ConvGeometry geometry);

    [[nodiscard]] const ConvGeometry& geometry() const { return geo_; }
    [[nodiscard]] const LinearLayout& layout() const { return layout_; }
    /// Input channels per ciphertext group (last group zero-padded).
    [[nodiscard]] std::int64_t channels_per_group() const { return channels_per_group_; }

    /// Pack kernel weights w (laid out [O,C,k,k], fixed-point encoded) for
    /// (group g, output channel o).
    [[nodiscard]] std::vector<Ring> encode_weight(std::span<const Ring> w, std::int64_t g,
                                                  std::int64_t o) const;

private:
    const BfvContext* ctx_;
    ConvGeometry geo_;
    std::int64_t channels_per_group_ = 0;
    LinearLayout layout_;
};

/// Fully-connected layout: one input polynomial; response b is the block
/// of rows [b * outs_per_block, (b+1) * outs_per_block), the last one
/// possibly partial.
class MatVecEncoder {
public:
    MatVecEncoder(const BfvContext& ctx, std::int64_t in_features, std::int64_t out_features);

    [[nodiscard]] std::int64_t in_features() const { return in_; }
    [[nodiscard]] std::int64_t out_features() const { return out_; }
    [[nodiscard]] const LinearLayout& layout() const { return layout_; }

    /// Weight rows of block b (W laid out [out, in] row-major).
    [[nodiscard]] std::vector<Ring> encode_weight_block(std::span<const Ring> w,
                                                        std::int64_t b) const;

private:
    const BfvContext* ctx_;
    std::int64_t in_ = 0, out_ = 0;
    std::int64_t outs_per_block_ = 0;
    LinearLayout layout_;
};

}  // namespace c2pi::he
