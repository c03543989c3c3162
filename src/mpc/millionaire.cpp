#include "mpc/millionaire.hpp"

namespace c2pi::mpc {

namespace {

constexpr int kRadixBits = 4;
constexpr int kNumBlocks = 16;  // 64 / 4
constexpr std::size_t kNumOptions = 1 << kRadixBits;

/// Open XOR-shared bits to both parties (one message each way, packed).
BitVec open_bits(PartyContext& ctx, std::span<const std::uint8_t> share) {
    std::vector<std::uint8_t> packed((share.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < share.size(); ++i)
        packed[i / 8] |= static_cast<std::uint8_t>((share[i] & 1U) << (i % 8));
    // Deterministic order: server sends first. The reply lands in the
    // session's recv scratch — the open runs once per AND round, so the
    // buffer stays warm across the whole millionaire tree.
    std::vector<std::uint8_t>& theirs = ctx.recv_scratch();
    if (ctx.is_server()) {
        ctx.transport().send_bytes(packed);
        ctx.transport().recv_bytes_into(theirs);
    } else {
        ctx.transport().recv_bytes_into(theirs);
        ctx.transport().send_bytes(packed);
    }
    require(theirs.size() == packed.size(), "open_bits size mismatch");
    BitVec out(share.size());
    for (std::size_t i = 0; i < share.size(); ++i) {
        const std::uint8_t other = (theirs[i / 8] >> (i % 8)) & 1U;
        out[i] = static_cast<std::uint8_t>((share[i] & 1U) ^ other);
    }
    return out;
}

/// Batched AND of XOR-shared bit vectors via fresh OT-generated triples.
BitVec and_bits(PartyContext& ctx, std::span<const std::uint8_t> x, std::span<const std::uint8_t> y) {
    require(x.size() == y.size(), "and_bits size mismatch");
    const std::size_t n = x.size();
    const auto triples =
        crypto::bit_triples_party(ctx.transport(), ctx.ot_sender(), ctx.ot_receiver(), n, ctx.prg());

    BitVec de(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        de[2 * i] = static_cast<std::uint8_t>((x[i] ^ triples.a[i]) & 1U);
        de[2 * i + 1] = static_cast<std::uint8_t>((y[i] ^ triples.b[i]) & 1U);
    }
    const BitVec opened = open_bits(ctx, de);

    BitVec z(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t d = opened[2 * i];
        const std::uint8_t e = opened[2 * i + 1];
        std::uint8_t v = static_cast<std::uint8_t>(triples.c[i] ^ (d & triples.b[i]) ^
                                                   (e & triples.a[i]));
        if (ctx.is_server()) v ^= static_cast<std::uint8_t>(d & e);
        z[i] = static_cast<std::uint8_t>(v & 1U);
    }
    return z;
}

struct LeafShares {
    BitVec lt;  ///< per (element, block): share of 1{c_blk < a_blk}
    BitVec eq;  ///< per (element, block): share of 1{c_blk == a_blk}
};

/// Merge the per-block lt/eq shares into one GT bit per element.
BitVec combine_tree(PartyContext& ctx, LeafShares leaves, std::size_t n_elements) {
    std::size_t blocks = kNumBlocks;
    BitVec lt = std::move(leaves.lt);
    BitVec eq = std::move(leaves.eq);
    while (blocks > 1) {
        const std::size_t half = blocks / 2;
        // Gather AND operands for all merges of this level:
        //   new_lt = lt_hi ^ (eq_hi & lt_lo);  new_eq = eq_hi & eq_lo.
        BitVec left(2 * half * n_elements), right(2 * half * n_elements);
        for (std::size_t e = 0; e < n_elements; ++e) {
            for (std::size_t m = 0; m < half; ++m) {
                const std::size_t lo = e * blocks + 2 * m;
                const std::size_t hi = lo + 1;
                const std::size_t base = (e * half + m) * 2;
                left[base] = eq[hi];
                right[base] = lt[lo];
                left[base + 1] = eq[hi];
                right[base + 1] = eq[lo];
            }
        }
        const BitVec products = and_bits(ctx, left, right);
        BitVec new_lt(half * n_elements), new_eq(half * n_elements);
        for (std::size_t e = 0; e < n_elements; ++e) {
            for (std::size_t m = 0; m < half; ++m) {
                const std::size_t hi = e * blocks + 2 * m + 1;
                const std::size_t base = (e * half + m) * 2;
                new_lt[e * half + m] = static_cast<std::uint8_t>(lt[hi] ^ products[base]);
                new_eq[e * half + m] = products[base + 1];
            }
        }
        lt = std::move(new_lt);
        eq = std::move(new_eq);
        blocks = half;
    }
    return lt;
}

}  // namespace

BitVec millionaire_party0(PartyContext& ctx, std::span<const Ring> a) {
    const std::size_t n = a.size();
    LeafShares leaves;
    leaves.lt.resize(n * kNumBlocks);
    leaves.eq.resize(n * kNumBlocks);

    // Leaf OT messages: for each (element, block) group, 16 options, each a
    // byte packing (lt ^ r_lt) | ((eq ^ r_eq) << 1) for the receiver's
    // candidate block value v.
    std::vector<std::uint8_t> messages(n * kNumBlocks * kNumOptions);
    const auto randomness = ctx.prg().next_bits(2 * n * kNumBlocks);
    for (std::size_t e = 0; e < n; ++e) {
        for (int k = 0; k < kNumBlocks; ++k) {
            const std::size_t g = e * kNumBlocks + static_cast<std::size_t>(k);
            const unsigned a_blk = static_cast<unsigned>((a[e] >> (kRadixBits * k)) & 0xF);
            const std::uint8_t r_lt = randomness[2 * g];
            const std::uint8_t r_eq = randomness[2 * g + 1];
            leaves.lt[g] = r_lt;
            leaves.eq[g] = r_eq;
            for (unsigned v = 0; v < kNumOptions; ++v) {
                const std::uint8_t lt = static_cast<std::uint8_t>((v < a_blk ? 1 : 0) ^ r_lt);
                const std::uint8_t eq = static_cast<std::uint8_t>((v == a_blk ? 1 : 0) ^ r_eq);
                messages[g * kNumOptions + v] = static_cast<std::uint8_t>(lt | (eq << 1));
            }
        }
    }
    crypto::ot_1_of_n_send(ctx.transport(), ctx.ot_sender(), messages, n * kNumBlocks, kNumOptions);
    return combine_tree(ctx, std::move(leaves), n);
}

BitVec millionaire_party1(PartyContext& ctx, std::span<const Ring> c) {
    const std::size_t n = c.size();
    std::vector<std::uint16_t> indices(n * kNumBlocks);
    for (std::size_t e = 0; e < n; ++e)
        for (int k = 0; k < kNumBlocks; ++k)
            indices[e * kNumBlocks + static_cast<std::size_t>(k)] =
                static_cast<std::uint16_t>((c[e] >> (kRadixBits * k)) & 0xF);

    const auto received =
        crypto::ot_1_of_n_recv(ctx.transport(), ctx.ot_receiver(), indices, kNumOptions);
    LeafShares leaves;
    leaves.lt.resize(n * kNumBlocks);
    leaves.eq.resize(n * kNumBlocks);
    for (std::size_t g = 0; g < received.size(); ++g) {
        leaves.lt[g] = received[g] & 1U;
        leaves.eq[g] = (received[g] >> 1) & 1U;
    }
    return combine_tree(ctx, std::move(leaves), n);
}

BitVec drelu_shares(PartyContext& ctx, std::span<const Ring> y_share) {
    const std::size_t n = y_share.size();
    constexpr Ring kLowMask = (Ring{1} << 63) - 1;

    // carry = 1{ low(y0) + low(y1) >= 2^63 } = millionaire(low0 > 2^63-1-low1).
    std::vector<Ring> operand(n);
    BitVec carry;
    if (ctx.is_server()) {
        for (std::size_t i = 0; i < n; ++i) operand[i] = y_share[i] & kLowMask;
        carry = millionaire_party0(ctx, operand);
    } else {
        for (std::size_t i = 0; i < n; ++i) operand[i] = kLowMask - (y_share[i] & kLowMask);
        carry = millionaire_party1(ctx, operand);
    }

    // b = 1 ^ msb(y0) ^ msb(y1) ^ carry; the constant 1 goes to the server.
    BitVec b(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t v = static_cast<std::uint8_t>((y_share[i] >> 63) & 1U) ^ carry[i];
        if (ctx.is_server()) v ^= 1U;
        b[i] = static_cast<std::uint8_t>(v & 1U);
    }
    return b;
}

std::vector<Ring> mux_shares(PartyContext& ctx, std::span<const std::uint8_t> b_share,
                             std::span<const Ring> y_share) {
    require(b_share.size() == y_share.size(), "mux operand size mismatch");
    const std::size_t n = y_share.size();

    // Each party plays OT sender once (transferring b * y_own - x) and
    // receiver once (choosing with its own b bit). Server sends first.
    std::vector<Ring> own_offset(n), m0(n), m1(n);
    for (std::size_t i = 0; i < n; ++i) {
        own_offset[i] = ctx.prg().next_u64();
        const Ring y_if_zero = (b_share[i] & 1U) ? y_share[i] : 0;
        const Ring y_if_one = (b_share[i] & 1U) ? 0 : y_share[i];
        m0[i] = y_if_zero - own_offset[i];
        m1[i] = y_if_one - own_offset[i];
    }

    std::vector<Ring> received;
    if (ctx.is_server()) {
        crypto::ot_send_u64_pairs(ctx.transport(), ctx.ot_sender(), m0, m1);
        received = crypto::ot_recv_u64s(ctx.transport(), ctx.ot_receiver(), b_share);
    } else {
        received = crypto::ot_recv_u64s(ctx.transport(), ctx.ot_receiver(), b_share);
        crypto::ot_send_u64_pairs(ctx.transport(), ctx.ot_sender(), m0, m1);
    }

    std::vector<Ring> z(n);
    for (std::size_t i = 0; i < n; ++i) z[i] = own_offset[i] + received[i];
    return z;
}

std::vector<Ring> relu_shares_ot(PartyContext& ctx, std::span<const Ring> y_share) {
    const BitVec b = drelu_shares(ctx, y_share);
    return mux_shares(ctx, b, y_share);
}

}  // namespace c2pi::mpc
