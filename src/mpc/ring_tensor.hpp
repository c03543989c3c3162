#pragma once

/// \file ring_tensor.hpp
/// Tensor of Z_{2^64} elements — the secret-shared counterpart of Tensor.
/// Conversions apply the fixed-point code from core/fixed_point.hpp.

#include <vector>

#include "core/fixed_point.hpp"
#include "tensor/tensor.hpp"

namespace c2pi::mpc {

struct RingTensor {
    Shape shape;
    std::vector<Ring> data;

    RingTensor() = default;
    explicit RingTensor(Shape s) : shape(std::move(s)) {
        data.assign(static_cast<std::size_t>(shape_numel(shape)), 0);
    }
    RingTensor(Shape s, std::vector<Ring> values) : shape(std::move(s)), data(std::move(values)) {
        require(static_cast<std::int64_t>(data.size()) == shape_numel(shape),
                "ring tensor value count mismatch");
    }

    [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data.size()); }
    [[nodiscard]] std::span<const Ring> span() const { return data; }
    [[nodiscard]] std::span<Ring> span() { return data; }
};

/// Fixed-point encode a float tensor into the ring.
[[nodiscard]] inline RingTensor encode_tensor(const Tensor& t, const FixedPointFormat& fmt) {
    RingTensor out(t.shape());
    for (std::int64_t i = 0; i < t.numel(); ++i)
        out.data[static_cast<std::size_t>(i)] = fmt.encode(t[i]);
    return out;
}

/// Decode a ring tensor back to floats.
[[nodiscard]] inline Tensor decode_tensor(const RingTensor& t, const FixedPointFormat& fmt) {
    Tensor out(t.shape);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        out[i] = static_cast<float>(fmt.decode(t.data[static_cast<std::size_t>(i)]));
    return out;
}

}  // namespace c2pi::mpc
