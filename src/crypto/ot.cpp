#include "crypto/ot.hpp"

#include <algorithm>
#include <bit>

namespace c2pi::crypto {

static_assert(std::endian::native == std::endian::little,
              "IKNP rows are packed bytes read back as little-endian words");

namespace {

/// The IKNP matrix: 128 rows of packed choice-bit columns, one flat
/// buffer, each row padded to whole 64-bit words (bit j of a row is bit
/// j % 64 of word j / 64). Padding bits stay zero.
struct BitRows {
    explicit BitRows(std::size_t n) : words((n + 63) / 64), data(kOtSecurityParam * words) {}

    [[nodiscard]] std::span<std::uint8_t> row_bytes(std::size_t i, std::size_t nbytes) {
        return {reinterpret_cast<std::uint8_t*>(data.data() + i * words), nbytes};
    }

    std::size_t words;
    std::vector<std::uint64_t> data;
};

/// Fill the first nbytes of `row` with the PRG expansion of one base-OT key.
void expand_row(const Block128& key, std::uint64_t round, std::span<std::uint8_t> row) {
    ChaCha20Prg prg(key, /*nonce=*/round + 1);
    prg.fill_bytes(row);
}

/// In-place 64x64 bit-matrix transpose: afterwards bit c of a[r] is what
/// bit r of a[c] was. Six rounds of block swaps, halving the block size.
void transpose64(std::uint64_t a[64]) {
    std::uint64_t mask = 0x00000000FFFFFFFFULL;
    for (unsigned width = 32; width != 0; width >>= 1, mask ^= mask << width) {
        for (unsigned r = 0; r < 64; r = ((r | width) + 1) & ~width) {
            const std::uint64_t swap = ((a[r] >> width) ^ a[r | width]) & mask;
            a[r | width] ^= swap;
            a[r] ^= swap << width;
        }
    }
}

/// Column j of the 128-row matrix as one block per OT: bit i of column j
/// is bit j of row i (rows 0..63 in .lo, 64..127 in .hi).
std::vector<Block128> transpose_columns(const BitRows& rows, std::size_t n) {
    std::vector<Block128> cols(n);
    std::uint64_t lo[64], hi[64];
    for (std::size_t w = 0; w < rows.words; ++w) {
        for (std::size_t i = 0; i < 64; ++i) {
            lo[i] = rows.data[i * rows.words + w];
            hi[i] = rows.data[(64 + i) * rows.words + w];
        }
        transpose64(lo);
        transpose64(hi);
        const std::size_t count = std::min<std::size_t>(64, n - 64 * w);
        for (std::size_t k = 0; k < count; ++k) cols[64 * w + k] = {lo[k], hi[k]};
    }
    return cols;
}

}  // namespace

OtSetupPair dealer_base_ots(const Block128& session_seed) {
    ChaCha20Prg prg(session_seed, /*nonce=*/0xBA5E);
    OtSetupPair pair;
    for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
        const Block128 k0 = prg.next_block();
        const Block128 k1 = prg.next_block();
        const std::uint8_t s = static_cast<std::uint8_t>(prg.next_u64() & 1U);
        pair.receiver.keys0[i] = k0;
        pair.receiver.keys1[i] = k1;
        pair.sender.keys[i] = s ? k1 : k0;
        pair.sender.s[i] = s;
    }
    return pair;
}

RotReceiverOutput IknpReceiver::extend(net::Transport& t, std::span<const std::uint8_t> choices) {
    const std::size_t n = choices.size();
    require(n > 0, "empty OT extension");
    const std::size_t nbytes = (n + 7) / 8;

    std::vector<std::uint8_t> r_packed(nbytes, 0);
    for (std::size_t j = 0; j < n; ++j)
        if (choices[j]) r_packed[j / 8] |= static_cast<std::uint8_t>(1U << (j % 8));

    BitRows t_rows(n);
    std::vector<std::uint8_t> u_flat(kOtSecurityParam * nbytes);
    for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
        const auto t_row = t_rows.row_bytes(i, nbytes);
        const std::span<std::uint8_t> u_row(u_flat.data() + i * nbytes, nbytes);
        expand_row(setup_.keys0[i], round_, t_row);
        expand_row(setup_.keys1[i], round_, u_row);
        for (std::size_t b = 0; b < nbytes; ++b) u_row[b] ^= t_row[b] ^ r_packed[b];
    }
    t.send_bytes(u_flat);

    RotReceiverOutput out{.t = transpose_columns(t_rows, n), .tweak = tweak_};
    ++round_;
    tweak_ += n;
    return out;
}

RotSenderOutput IknpSender::extend(net::Transport& t, std::size_t n) {
    require(n > 0, "empty OT extension");
    const std::size_t nbytes = (n + 7) / 8;
    const auto u_flat = t.recv_bytes();
    require(u_flat.size() == kOtSecurityParam * nbytes, "IKNP u-matrix size mismatch");

    BitRows q_rows(n);
    for (std::size_t i = 0; i < kOtSecurityParam; ++i) {
        const auto q_row = q_rows.row_bytes(i, nbytes);
        expand_row(setup_.keys[i], round_, q_row);
        if (setup_.s[i]) {
            for (std::size_t b = 0; b < nbytes; ++b) q_row[b] ^= u_flat[i * nbytes + b];
        }
    }
    Block128 s_block{};
    for (std::size_t i = 0; i < 64; ++i)
        s_block.lo |= static_cast<std::uint64_t>(setup_.s[i]) << i;
    for (std::size_t i = 0; i < 64; ++i)
        s_block.hi |= static_cast<std::uint64_t>(setup_.s[64 + i]) << i;

    RotSenderOutput out{.q = transpose_columns(q_rows, n), .s = s_block, .tweak = tweak_};
    ++round_;
    tweak_ += n;
    return out;
}

// ------------------------------------------------------- chosen-message OT ---

void ot_send_blocks(net::Transport& t, IknpSender& ext, std::span<const Block128> messages0,
                    std::span<const Block128> messages1) {
    require(messages0.size() == messages1.size(), "OT message count mismatch");
    const std::size_t n = messages0.size();
    const auto rot = ext.extend(t, n);
    std::vector<std::uint8_t> payload(n * 32);
    rot.for_each_chunk<Block128>([&](std::size_t begin, auto m0, auto m1) {
        for (std::size_t k = 0; k < m0.size(); ++k) {
            const std::size_t j = begin + k;
            (messages0[j] ^ m0[k]).to_bytes(payload.data() + 32 * j);
            (messages1[j] ^ m1[k]).to_bytes(payload.data() + 32 * j + 16);
        }
    });
    t.send_bytes(payload);
}

std::vector<Block128> ot_recv_blocks(net::Transport& t, IknpReceiver& ext,
                                     std::span<const std::uint8_t> choices) {
    const std::size_t n = choices.size();
    const auto rot = ext.extend(t, choices);
    const auto payload = t.recv_bytes();
    require(payload.size() == n * 32, "OT payload size mismatch");
    std::vector<Block128> out(n);
    rot.for_each_chunk<Block128>([&](std::size_t begin, auto m) {
        for (std::size_t k = 0; k < m.size(); ++k) {
            const std::size_t j = begin + k;
            out[j] = Block128::from_bytes(payload.data() + 32 * j + (choices[j] ? 16 : 0)) ^ m[k];
        }
    });
    return out;
}

void ot_send_u64_pairs(net::Transport& t, IknpSender& ext, std::span<const Ring> messages0,
                       std::span<const Ring> messages1) {
    require(messages0.size() == messages1.size(), "OT message count mismatch");
    const std::size_t n = messages0.size();
    const auto rot = ext.extend(t, n);
    std::vector<Ring> payload(2 * n);
    rot.for_each_chunk<std::uint64_t>([&](std::size_t begin, auto m0, auto m1) {
        for (std::size_t k = 0; k < m0.size(); ++k) {
            const std::size_t j = begin + k;
            payload[2 * j] = messages0[j] ^ m0[k];
            payload[2 * j + 1] = messages1[j] ^ m1[k];
        }
    });
    t.send_u64s(payload);
}

std::vector<Ring> ot_recv_u64s(net::Transport& t, IknpReceiver& ext,
                               std::span<const std::uint8_t> choices) {
    const std::size_t n = choices.size();
    const auto rot = ext.extend(t, choices);
    const auto payload = t.recv_u64s();
    require(payload.size() == 2 * n, "OT payload size mismatch");
    std::vector<Ring> out(n);
    rot.for_each_chunk<std::uint64_t>([&](std::size_t begin, auto m) {
        for (std::size_t k = 0; k < m.size(); ++k) {
            const std::size_t j = begin + k;
            out[j] = payload[2 * j + (choices[j] ? 1 : 0)] ^ m[k];
        }
    });
    return out;
}

// ---------------------------------------------------------------- 1-of-N OT ---

namespace {

std::size_t log2_exact(std::size_t n) {
    require(n >= 2 && n <= sizeof(Block128), "1-of-N OT requires 2 <= N <= 16");
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    require((std::size_t{1} << bits) == n, "1-of-N OT requires power-of-two N");
    return bits;
}

/// Byte j of a block in wire order.
std::uint8_t block_byte(const Block128& b, std::size_t j) {
    return static_cast<std::uint8_t>((j < 8 ? b.lo >> (8 * j) : b.hi >> (8 * (j - 8))) & 0xFF);
}

/// Byte j of kOptionMask[i] is 0xFF iff bit i of j is 1: per option j, it
/// selects which of random OT i's two outputs pads option j.
constexpr Block128 kOptionMask[4] = {
    {0xFF00FF00FF00FF00ULL, 0xFF00FF00FF00FF00ULL},
    {0xFFFF0000FFFF0000ULL, 0xFFFF0000FFFF0000ULL},
    {0xFFFFFFFF00000000ULL, 0xFFFFFFFF00000000ULL},
    {0x0000000000000000ULL, 0xFFFFFFFFFFFFFFFFULL},
};

}  // namespace

void ot_1_of_n_send(net::Transport& t, IknpSender& ext, std::span<const std::uint8_t> messages,
                    std::size_t n_groups, std::size_t n_options) {
    const std::size_t log_n = log2_exact(n_options);
    require(messages.size() == n_groups * n_options, "1-of-N message layout mismatch");
    const auto rot = ext.extend(t, n_groups * log_n);

    // All N pads of a group at once: byte j of `pads` is pad_j (see ot.hpp).
    // Group g is random OTs g * log_n + i, i < log_n, which may straddle
    // two hash chunks, so the group's pads carry over.
    std::vector<std::uint8_t> payload(n_groups * n_options);
    Block128 pads{};
    std::size_t g = 0, i = 0;
    rot.for_each_chunk<Block128>([&](std::size_t, auto k0s, auto k1s) {
        for (std::size_t k = 0; k < k0s.size(); ++k) {
            pads ^= k0s[k] ^ ((k0s[k] ^ k1s[k]) & kOptionMask[i]);
            if (++i < log_n) continue;
            for (std::size_t j = 0; j < n_options; ++j)
                payload[g * n_options + j] = messages[g * n_options + j] ^ block_byte(pads, j);
            pads = {};
            i = 0;
            ++g;
        }
    });
    t.send_bytes(payload);
}

std::vector<std::uint8_t> ot_1_of_n_recv(net::Transport& t, IknpReceiver& ext,
                                         std::span<const std::uint16_t> indices,
                                         std::size_t n_options) {
    const std::size_t log_n = log2_exact(n_options);
    const std::size_t n_groups = indices.size();
    std::vector<std::uint8_t> choices(n_groups * log_n);
    for (std::size_t g = 0; g < n_groups; ++g) {
        require(indices[g] < n_options, "1-of-N index out of range");
        for (std::size_t i = 0; i < log_n; ++i)
            choices[g * log_n + i] = static_cast<std::uint8_t>((indices[g] >> i) & 1U);
    }
    const auto rot = ext.extend(t, choices);
    const auto payload = t.recv_bytes();
    require(payload.size() == n_groups * n_options, "1-of-N payload size mismatch");

    std::vector<std::uint8_t> out(n_groups);
    std::uint8_t pad = 0;
    std::size_t g = 0, i = 0;
    rot.for_each_chunk<Block128>([&](std::size_t, auto m) {
        for (const Block128& h : m) {
            pad ^= block_byte(h, indices[g]);
            if (++i < log_n) continue;
            out[g] = payload[g * n_options + indices[g]] ^ pad;
            pad = 0;
            i = 0;
            ++g;
        }
    });
    return out;
}

// ------------------------------------------------------------- bit triples ---

namespace {

/// One cross-term pass: the sender holds bits `a`, the receiver chose bits
/// `b`; afterwards sender_share ^ receiver_share = a & b elementwise.
std::vector<std::uint8_t> cross_term_send(net::Transport& t, IknpSender& ext,
                                          std::span<const std::uint8_t> a) {
    const std::size_t n = a.size();
    const auto rot = ext.extend(t, n);
    std::vector<std::uint8_t> shares(n), corrections((n + 7) / 8, 0);
    rot.for_each_chunk<std::uint64_t>([&](std::size_t begin, auto m0, auto m1) {
        for (std::size_t k = 0; k < m0.size(); ++k) {
            const std::size_t j = begin + k;
            const std::uint8_t t0 = m0[k] & 1U;
            const std::uint8_t t1 = m1[k] & 1U;
            shares[j] = t0;
            const std::uint8_t c = static_cast<std::uint8_t>(t0 ^ t1 ^ a[j]);
            corrections[j / 8] |= static_cast<std::uint8_t>(c << (j % 8));
        }
    });
    t.send_bytes(corrections);
    return shares;
}

std::vector<std::uint8_t> cross_term_recv(net::Transport& t, IknpReceiver& ext,
                                          std::span<const std::uint8_t> b) {
    const std::size_t n = b.size();
    const auto rot = ext.extend(t, b);
    const auto corrections = t.recv_bytes();
    require(corrections.size() == (n + 7) / 8, "cross-term correction size mismatch");
    std::vector<std::uint8_t> shares(n);
    rot.for_each_chunk<std::uint64_t>([&](std::size_t begin, auto m) {
        for (std::size_t k = 0; k < m.size(); ++k) {
            const std::size_t j = begin + k;
            const std::uint8_t tb = m[k] & 1U;
            const std::uint8_t c = (corrections[j / 8] >> (j % 8)) & 1U;
            shares[j] = b[j] ? static_cast<std::uint8_t>(tb ^ c) : tb;
        }
    });
    return shares;
}

}  // namespace

BitTriples bit_triples_party(net::Transport& t, IknpSender& send_ext, IknpReceiver& recv_ext,
                             std::size_t n, ChaCha20Prg& prg) {
    BitTriples out;
    out.a = prg.next_bits(n);
    out.b = prg.next_bits(n);
    out.c.resize(n);

    std::vector<std::uint8_t> cross1, cross2;
    if (t.party_id() == 0) {
        cross1 = cross_term_send(t, send_ext, out.a);   // a0 & b1
        cross2 = cross_term_recv(t, recv_ext, out.b);   // a1 & b0
    } else {
        cross1 = cross_term_recv(t, recv_ext, out.b);   // a0 & b1 (we choose with b1)
        cross2 = cross_term_send(t, send_ext, out.a);   // a1 & b0
    }
    for (std::size_t j = 0; j < n; ++j)
        out.c[j] = static_cast<std::uint8_t>((out.a[j] & out.b[j]) ^ cross1[j] ^ cross2[j]);
    return out;
}

}  // namespace c2pi::crypto
