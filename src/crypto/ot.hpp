#pragma once

/// \file ot.hpp
/// Oblivious transfer stack.
///
///  * Base OTs (128 of them) are delivered by a trusted-dealer setup
///    standing in for Naor-Pinkas (no big-integer/EC library): both
///    parties derive them from the shared session seed, so they are not
///    secret from anyone holding it. Their traffic is charged explicitly.
///  * IKNP OT extension (Ishai-Kilian-Nissim-Petrank 2003) is implemented
///    faithfully: PRG row expansion, u-matrix transmission, bit-matrix
///    transpose (64x64 word-wise), correlation-robust hashing of columns
///    (when read, at the width the caller keeps, in SIMD batches of up to
///    kRotChunk consecutive OTs).
///  * Derived functionalities: chosen-message 1-of-2 OT (blocks / u64 /
///    bytes), 1-of-N OT (the millionaire protocol's leaves), and GF(2)
///    Beaver "AND" triples.
///
/// Roles: the *sender* learns (m0, m1) pairs; the *receiver* learns m_b
/// for its choice bits b. In IKNP the extension sender plays base-OT
/// receiver and vice versa, which the setup factory takes care of.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fixed_point.hpp"
#include "crypto/block.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hash.hpp"
#include "net/channel.hpp"

namespace c2pi::crypto {

inline constexpr std::size_t kOtSecurityParam = 128;

/// Base-OT state held by the party that will act as extension *sender*:
/// one key per base OT, selected by its random choice bits s.
struct OtSetupSender {
    std::array<Block128, kOtSecurityParam> keys;  ///< k_{s_i}
    std::array<std::uint8_t, kOtSecurityParam> s; ///< choice bits
};

/// Base-OT state held by the extension *receiver*: both keys per base OT.
struct OtSetupReceiver {
    std::array<Block128, kOtSecurityParam> keys0;
    std::array<Block128, kOtSecurityParam> keys1;
};

struct OtSetupPair {
    OtSetupSender sender;
    OtSetupReceiver receiver;
    /// Serialized size of the Naor-Pinkas exchange this setup replaces;
    /// engines charge this many bytes to the offline phase.
    [[nodiscard]] static std::size_t setup_traffic_bytes() {
        return kOtSecurityParam * 3 * sizeof(Block128);
    }
};

/// Deterministic dealer: both parties derive consistent base OTs from a
/// shared session seed.
[[nodiscard]] OtSetupPair dealer_base_ots(const Block128& session_seed);

/// Random-OT outputs are hashed this many OTs at a time, into stack
/// buffers, one batched cr_hash kernel call per chunk and output.
inline constexpr std::size_t kRotChunk = 256;

/// Random OTs produced by one IKNP extension, held as the transposed
/// IKNP columns. Outputs are hashed when read, so a caller pays only for
/// the width it keeps: OT j's outputs are m0(j) = cr_hash(tweak + j, q[j])
/// and m1(j) = cr_hash(tweak + j, q[j] ^ s), or their low words
/// (cr_hash_u64) at half the cost.
struct RotSenderOutput {
    std::vector<Block128> q;  ///< column j of the sender's matrix Q
    Block128 s;               ///< base-OT choice bits: q[j] = t[j] ^ (b_j ? s : 0)
    std::uint64_t tweak = 0;  ///< hash tweak of OT 0

    /// Calls fn(begin, m0, m1) for consecutive chunks of at most kRotChunk
    /// OTs, in order, where m0[k], m1[k] are m0(begin + k), m1(begin + k):
    /// 128-bit blocks for W = Block128, low words for W = std::uint64_t.
    template <typename W, typename Fn>
    void for_each_chunk(Fn&& fn) const {
        W m0[kRotChunk], m1[kRotChunk];
        for (std::size_t begin = 0; begin < q.size(); begin += kRotChunk) {
            const std::size_t n = std::min(kRotChunk, q.size() - begin);
            const std::span<const Block128> cols(q.data() + begin, n);
            cr_hash_batch(cols, tweak + begin, 1, Block128{}, std::span<W>(m0, n));
            cr_hash_batch(cols, tweak + begin, 1, s, std::span<W>(m1, n));
            fn(begin, std::span<const W>(m0, n), std::span<const W>(m1, n));
        }
    }
};
struct RotReceiverOutput {
    std::vector<Block128> t;  ///< column j of the receiver's matrix T
    std::uint64_t tweak = 0;  ///< hash tweak of OT 0

    /// Calls fn(begin, m) for consecutive chunks of at most kRotChunk OTs,
    /// in order, where m[k] = cr_hash(tweak + begin + k, t[begin + k]) =
    /// (b ? m1 : m0)(begin + k) of the sender's output, at W's width.
    template <typename W, typename Fn>
    void for_each_chunk(Fn&& fn) const {
        W m[kRotChunk];
        for (std::size_t begin = 0; begin < t.size(); begin += kRotChunk) {
            const std::size_t n = std::min(kRotChunk, t.size() - begin);
            cr_hash_batch(std::span<const Block128>(t.data() + begin, n), tweak + begin, 1,
                          Block128{}, std::span<W>(m, n));
            fn(begin, std::span<const W>(m, n));
        }
    }
};

/// IKNP extension sender endpoint (stateful: tweak counter advances so
/// labels never repeat across extensions).
class IknpSender {
public:
    explicit IknpSender(OtSetupSender setup) : setup_(setup) {}

    /// Receive the u-matrix for n OTs; the output hashes (m0, m1) pairs
    /// on access.
    [[nodiscard]] RotSenderOutput extend(net::Transport& t, std::size_t n);

private:
    OtSetupSender setup_;
    std::uint64_t round_ = 0;
    std::uint64_t tweak_ = 0;
};

/// IKNP extension receiver endpoint.
class IknpReceiver {
public:
    explicit IknpReceiver(OtSetupReceiver setup) : setup_(setup) {}

    /// Run one extension for the given choice bits (one bit per byte).
    [[nodiscard]] RotReceiverOutput extend(net::Transport& t,
                                           std::span<const std::uint8_t> choices);

private:
    OtSetupReceiver setup_;
    std::uint64_t round_ = 0;
    std::uint64_t tweak_ = 0;
};

// -- chosen-message 1-of-2 OT -------------------------------------------------

/// Sender side: transfer exactly one of (messages0[j], messages1[j]) per OT.
void ot_send_blocks(net::Transport& t, IknpSender& ext, std::span<const Block128> messages0,
                    std::span<const Block128> messages1);
[[nodiscard]] std::vector<Block128> ot_recv_blocks(net::Transport& t, IknpReceiver& ext,
                                                   std::span<const std::uint8_t> choices);

/// Chosen-message 1-of-2 OT on 64-bit ring elements (the secure
/// multiplexer's workhorse). Comm: 16 bytes per OT.
void ot_send_u64_pairs(net::Transport& t, IknpSender& ext, std::span<const Ring> messages0,
                       std::span<const Ring> messages1);
[[nodiscard]] std::vector<Ring> ot_recv_u64s(net::Transport& t, IknpReceiver& ext,
                                             std::span<const std::uint8_t> choices);

// -- 1-of-N OT ------------------------------------------------------------------

/// Sender holds n_groups groups of N byte-messages (N a power of two,
/// N <= 16, laid out flat: group g occupies messages[g*N .. g*N+N)). The
/// receiver picks one index c per group. Comm: log2(N) random OTs plus N
/// masked bytes per group.
///
/// Pads (Naor-Pinkas 1-of-N from log2(N) 1-of-2 OTs, with F_K(j) = K[j]):
/// random OT i of the group gives the sender 16-byte strings K_{i,0},
/// K_{i,1} and the receiver K_{i,c_i}, c_i = bit i of c. Option j is sent
/// masked by pad_j = XOR_i K_{i, bit i of j}[j]; the receiver can form
/// exactly pad_c. Security: for every j != c pick an i with bit i of j
/// != c_i; pad_j contains byte j of K_{i, 1-c_i}, which the receiver
/// never sees and which masks no other option (byte j belongs to option
/// j alone). So the N-1 unchosen pads each carry a distinct uniform byte
/// and are jointly uniform to the receiver, under the same
/// correlation-robustness assumption on cr_hash that IKNP makes.
void ot_1_of_n_send(net::Transport& t, IknpSender& ext, std::span<const std::uint8_t> messages,
                    std::size_t n_groups, std::size_t n_options);
[[nodiscard]] std::vector<std::uint8_t> ot_1_of_n_recv(net::Transport& t, IknpReceiver& ext,
                                                       std::span<const std::uint16_t> indices,
                                                       std::size_t n_options);

// -- GF(2) Beaver triples --------------------------------------------------------

/// XOR-shared AND triples: a, b, c with (a0^a1)&(b0^b1) = c0^c1. Each
/// party calls its role function; party 0 must be the IknpSender owner
/// for the first pass and receiver for the second (handled internally by
/// taking both endpoints).
struct BitTriples {
    std::vector<std::uint8_t> a, b, c;  // one bit per byte
};
[[nodiscard]] BitTriples bit_triples_party(net::Transport& t, IknpSender& send_ext,
                                           IknpReceiver& recv_ext, std::size_t n,
                                           ChaCha20Prg& prg);

}  // namespace c2pi::crypto
