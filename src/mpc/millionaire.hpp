#pragma once

/// \file millionaire.hpp
/// OT-based secure comparison and DReLU (CrypTFlow2-style radix-16
/// millionaire protocol, the non-linear engine of the Cheetah backend).
///
/// millionaire_*: P0 holds values a, P1 holds values c; the parties end
/// with XOR shares of 1{a > c} per element. Each 64-bit value is split
/// into 16 radix-16 blocks; leaf lt/eq shares come from 1-of-16 OT, the
/// combine tree uses GF(2) Beaver triples (4 levels -> 4 rounds).
///
/// drelu_*: from additive shares of y, XOR shares of b = 1{y >= 0} via
/// the MSB-carry decomposition msb(y) = msb(y0) ^ msb(y1) ^ carry, with
/// carry decided by one millionaire comparison on the low 63 bits.
///
/// mux_*: additive shares of b * y from XOR shares of b and additive
/// shares of y (two chosen-message u64 OTs per element).
///
/// relu_*: DReLU + mux.

#include "mpc/context.hpp"
#include "mpc/ring_tensor.hpp"

namespace c2pi::mpc {

/// XOR-shared bits, one per byte.
using BitVec = std::vector<std::uint8_t>;

[[nodiscard]] BitVec millionaire_party0(PartyContext& ctx, std::span<const Ring> a);
[[nodiscard]] BitVec millionaire_party1(PartyContext& ctx, std::span<const Ring> c);

[[nodiscard]] BitVec drelu_shares(PartyContext& ctx, std::span<const Ring> y_share);

/// b * y where b is XOR-shared and y additively shared.
[[nodiscard]] std::vector<Ring> mux_shares(PartyContext& ctx, std::span<const std::uint8_t> b_share,
                                           std::span<const Ring> y_share);

/// ReLU on additive shares (batched): returns this party's share of
/// relu(y) elementwise.
[[nodiscard]] std::vector<Ring> relu_shares_ot(PartyContext& ctx, std::span<const Ring> y_share);

}  // namespace c2pi::mpc
