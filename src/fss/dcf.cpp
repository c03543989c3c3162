#include "fss/dcf.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "he/kernels.hpp"

namespace c2pi::fss {

namespace {

/// Fixed PRG nonce for node expansion. Distinct from every nonce the
/// repo derives elsewhere (party PRGs use nonce = party + 100, the
/// client key PRG uses 3), so tree seeds never collide with another
/// ChaCha20 stream even under equal keys.
constexpr std::uint64_t kNodeNonce = 0xF55;

/// One GGM node expansion is one ChaCha20 block keyed by the node seed,
/// read as 8 words: left child seed (lo, hi), left payload convert
/// (u, v), then the same for the right child at word kRight. The
/// control bits ride as the lsb of each child seed and are masked off,
/// leaving 127-bit effective seeds.
constexpr std::size_t kRight = 4;
constexpr std::uint64_t kSeedMask = ~std::uint64_t{1};

/// Expand n node seeds (lo, hi word pairs) into n 8-word blocks.
void expand(const he::kernels::Kernels& kernels, const std::uint64_t* seeds,
            std::uint64_t* blocks, std::size_t n) {
    kernels.chacha20_seeded_blocks(seeds, kNodeNonce, reinterpret_cast<std::uint8_t*>(blocks), n);
}

/// Bit `level` of x, most significant first (the tree's descent order).
std::uint64_t path_bit(Ring x, int level) { return (x >> (kDomainBits - 1 - level)) & 1U; }

/// Convert a final-level seed into the payload group (the same map the
/// per-level payload converts use).
DcfPayload convert(std::uint64_t lo, std::uint64_t hi) { return {lo, hi}; }

DcfPayload signed_by(bool negate, const DcfPayload& p) { return negate ? p.negated() : p; }

/// One tile (m <= kDcfTile keys) of dcf_gen_batch.
void gen_tile(const he::kernels::Kernels& kernels, const DcfGenInput* in, DcfKey* const* k0,
              DcfKey* const* k1, std::size_t m) {
    // Key j's two tree nodes on the alpha path: party 0's seed at words
    // 4j, 4j+1, party 1's at 4j+2, 4j+3; their expansions likewise.
    alignas(64) std::uint64_t seeds[4 * kDcfTile] = {};
    alignas(64) std::uint64_t blocks[16 * kDcfTile] = {};
    std::uint64_t t0[kDcfTile] = {}, t1[kDcfTile] = {};  // control bits (0/1)
    DcfPayload v_alpha[kDcfTile];  // running payload correction along the alpha path
    std::uint64_t t_cw_left[kDcfTile] = {}, t_cw_right[kDcfTile] = {};
    for (std::size_t j = 0; j < m; ++j) {
        k0[j]->root = in[j].root0;
        k1[j]->root = in[j].root1;
        seeds[4 * j] = in[j].root0.lo;
        seeds[4 * j + 1] = in[j].root0.hi;
        seeds[4 * j + 2] = in[j].root1.lo;
        seeds[4 * j + 3] = in[j].root1.hi;
        t0[j] = 0;
        t1[j] = 1;
    }

    for (int i = 0; i < kDomainBits; ++i) {
        const auto level = static_cast<std::size_t>(i);
        expand(kernels, seeds, blocks, 2 * m);
        for (std::size_t j = 0; j < m; ++j) {
            const std::uint64_t* e0 = blocks + 16 * j;
            const std::uint64_t* e1 = e0 + 8;
            const std::uint64_t a = path_bit(in[j].alpha, i);
            // Keep follows the alpha path; Lose is the sibling. When alpha's
            // bit is 1 the lost (left) subtree lies entirely below alpha, so
            // its correction must add beta.
            const std::size_t lose = a != 0 ? 0 : kRight;
            const std::size_t keep = kRight - lose;
            const crypto::Block128 seed_cw{(e0[lose] ^ e1[lose]) & kSeedMask,
                                           e0[lose + 1] ^ e1[lose + 1]};
            DcfPayload lost{e1[lose + 2] - e0[lose + 2], e1[lose + 3] - e0[lose + 3]};
            if (a != 0) lost += in[j].beta;
            const DcfPayload value_cw = signed_by(t1[j] != 0, lost - v_alpha[j]);
            // v_alpha - v_keep1 + v_keep0 + signed_by(t1, value_cw); the
            // two signs cancel, and so does the old v_alpha.
            v_alpha[j] = DcfPayload{e0[keep + 2] - e1[keep + 2], e0[keep + 3] - e1[keep + 3]} + lost;

            const std::uint64_t cw_l = (e0[0] ^ e1[0] ^ a ^ 1U) & 1U;
            const std::uint64_t cw_r = (e0[kRight] ^ e1[kRight] ^ a) & 1U;
            const std::uint64_t cw_keep = a != 0 ? cw_r : cw_l;
            t_cw_left[j] |= cw_l << i;
            t_cw_right[j] |= cw_r << i;
            k0[j]->seed_cw[level] = seed_cw;
            k0[j]->value_cw[level] = value_cw;

            const std::uint64_t mask0 = 0 - t0[j];
            const std::uint64_t mask1 = 0 - t1[j];
            seeds[4 * j] = (e0[keep] & kSeedMask) ^ (seed_cw.lo & mask0);
            seeds[4 * j + 1] = e0[keep + 1] ^ (seed_cw.hi & mask0);
            seeds[4 * j + 2] = (e1[keep] & kSeedMask) ^ (seed_cw.lo & mask1);
            seeds[4 * j + 3] = e1[keep + 1] ^ (seed_cw.hi & mask1);
            t0[j] = (e0[keep] & 1U) ^ (t0[j] & cw_keep);
            t1[j] = (e1[keep] & 1U) ^ (t1[j] & cw_keep);
        }
    }

    for (std::size_t j = 0; j < m; ++j) {
        const DcfPayload final_cw =
            signed_by(t1[j] != 0, convert(seeds[4 * j + 2], seeds[4 * j + 3]) -
                                      convert(seeds[4 * j], seeds[4 * j + 1]) - v_alpha[j]);
        // The halves share every correction word: party 0's key took
        // them level by level, party 1's copies them once.
        k1[j]->seed_cw = k0[j]->seed_cw;
        k1[j]->value_cw = k0[j]->value_cw;
        for (DcfKey* key : {k0[j], k1[j]}) {
            key->t_cw_left = t_cw_left[j];
            key->t_cw_right = t_cw_right[j];
            key->final_cw = final_cw;
        }
    }
}

/// One tile (m <= kDcfTile keys) of dcf_eval_batch.
void eval_tile(const he::kernels::Kernels& kernels, const DcfKey* const* keys, int party,
               const Ring* xs, DcfPayload* out, std::size_t m) {
    alignas(64) std::uint64_t seeds[2 * kDcfTile] = {};
    alignas(64) std::uint64_t blocks[8 * kDcfTile] = {};
    std::uint64_t t[kDcfTile] = {};
    // Unsigned running sums; party 1's share is their negation.
    DcfPayload sum[kDcfTile];
    for (std::size_t j = 0; j < m; ++j) {
        seeds[2 * j] = keys[j]->root.lo;
        seeds[2 * j + 1] = keys[j]->root.hi;
        t[j] = party == 1 ? 1 : 0;
    }

    for (int i = 0; i < kDomainBits; ++i) {
        const auto level = static_cast<std::size_t>(i);
        expand(kernels, seeds, blocks, m);
        for (std::size_t j = 0; j < m; ++j) {
            const DcfKey& key = *keys[j];
            const std::uint64_t x_bit = path_bit(xs[j], i);
            const std::uint64_t* e = blocks + 8 * j + (x_bit != 0 ? kRight : 0);
            const std::uint64_t mask = 0 - t[j];
            // Payload converts are taken RAW (pre-correction) plus the
            // masked value correction; only the child seed and control
            // bit absorb the seed and control corrections.
            sum[j] += DcfPayload{e[2] + (key.value_cw[level].u & mask),
                                 e[3] + (key.value_cw[level].v & mask)};
            seeds[2 * j] = (e[0] & kSeedMask) ^ (key.seed_cw[level].lo & mask);
            seeds[2 * j + 1] = e[1] ^ (key.seed_cw[level].hi & mask);
            const std::uint64_t t_cw = x_bit != 0 ? key.t_cw_right : key.t_cw_left;
            t[j] = (e[0] & 1U) ^ ((t_cw >> i) & t[j]);
        }
    }

    for (std::size_t j = 0; j < m; ++j) {
        const DcfPayload leaf = convert(seeds[2 * j], seeds[2 * j + 1]);
        sum[j] += t[j] != 0 ? leaf + keys[j]->final_cw : leaf;
        out[j] = signed_by(party == 1, sum[j]);
    }
}

}  // namespace

void dcf_gen_batch(std::span<const DcfGenInput> in, std::span<DcfKey* const> k0,
                   std::span<DcfKey* const> k1) {
    require(k0.size() == in.size() && k1.size() == in.size(),
            "dcf_gen_batch: input and key spans differ in size");
    const he::kernels::Kernels& kernels = he::kernels::active();
    for (std::size_t b = 0; b < in.size(); b += kDcfTile) {
        const std::size_t m = std::min(kDcfTile, in.size() - b);
        gen_tile(kernels, in.data() + b, k0.data() + b, k1.data() + b, m);
    }
}

void dcf_eval_batch(std::span<const DcfKey* const> keys, int party, std::span<const Ring> xs,
                    std::span<DcfPayload> out) {
    require(party == 0 || party == 1, "dcf_eval: party must be 0 or 1");
    require(xs.size() == keys.size() && out.size() == keys.size(),
            "dcf_eval_batch: key, point and output spans differ in size");
    const he::kernels::Kernels& kernels = he::kernels::active();
    for (std::size_t b = 0; b < keys.size(); b += kDcfTile) {
        const std::size_t m = std::min(kDcfTile, keys.size() - b);
        eval_tile(kernels, keys.data() + b, party, xs.data() + b, out.data() + b, m);
    }
}

DcfKeyPair dcf_gen(Ring alpha, const DcfPayload& beta, crypto::ChaCha20Prg& prg) {
    // Braced initializers run in order: root0 is drawn before root1.
    const DcfGenInput in{
        .alpha = alpha, .beta = beta, .root0 = prg.next_block(), .root1 = prg.next_block()};
    DcfKeyPair kp;
    DcfKey* const k0 = &kp.k0;
    DcfKey* const k1 = &kp.k1;
    dcf_gen_batch({&in, 1}, {&k0, 1}, {&k1, 1});
    return kp;
}

DcfPayload dcf_eval(const DcfKey& key, int party, Ring x) {
    const DcfKey* const k = &key;
    DcfPayload out;
    dcf_eval_batch({&k, 1}, party, {&x, 1}, {&out, 1});
    return out;
}

// ------------------------------------------------------------------- codec ---

namespace {

void put_u64(std::uint8_t* out, std::uint64_t v) { std::memcpy(out, &v, 8); }
std::uint64_t get_u64(const std::uint8_t* in) {
    std::uint64_t v;
    std::memcpy(&v, in, 8);
    return v;
}

}  // namespace

void DcfKey::serialize_into(std::uint8_t* out) const {
    root.to_bytes(out);
    out += 16;
    for (const auto& cw : seed_cw) {
        cw.to_bytes(out);
        out += 16;
    }
    for (const auto& cw : value_cw) {
        put_u64(out, cw.u);
        put_u64(out + 8, cw.v);
        out += 16;
    }
    put_u64(out, t_cw_left);
    put_u64(out + 8, t_cw_right);
    out += 16;
    put_u64(out, final_cw.u);
    put_u64(out + 8, final_cw.v);
}

DcfKey DcfKey::deserialize(const std::uint8_t* in) {
    DcfKey key;
    key.root = crypto::Block128::from_bytes(in);
    in += 16;
    for (auto& cw : key.seed_cw) {
        cw = crypto::Block128::from_bytes(in);
        in += 16;
    }
    for (auto& cw : key.value_cw) {
        cw.u = get_u64(in);
        cw.v = get_u64(in + 8);
        in += 16;
    }
    key.t_cw_left = get_u64(in);
    key.t_cw_right = get_u64(in + 8);
    in += 16;
    key.final_cw.u = get_u64(in);
    key.final_cw.v = get_u64(in + 8);
    return key;
}

}  // namespace c2pi::fss
