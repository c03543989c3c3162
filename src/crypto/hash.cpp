#include "crypto/hash.hpp"

#include <cstring>

#include "core/error.hpp"
#include "he/kernels.hpp"

namespace c2pi::crypto {

// ---------------------------------------------------------------- SHA-256 ---

namespace {
constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }
}  // namespace

Sha256::Sha256() {
    h_[0] = 0x6a09e667;
    h_[1] = 0xbb67ae85;
    h_[2] = 0x3c6ef372;
    h_[3] = 0xa54ff53a;
    h_[4] = 0x510e527f;
    h_[5] = 0x9b05688c;
    h_[6] = 0x1f83d9ab;
    h_[7] = 0x5be0cd19;
}

void Sha256::compress(const std::uint8_t block[64]) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t(block[4 * i]) << 24) | (std::uint32_t(block[4 * i + 1]) << 16) |
               (std::uint32_t(block[4 * i + 2]) << 8) | std::uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
}

void Sha256::update(std::span<const std::uint8_t> data) {
    total_len_ += data.size();
    std::size_t off = 0;
    if (buffer_len_ > 0) {
        const std::size_t take = std::min<std::size_t>(64 - buffer_len_, data.size());
        std::memcpy(buffer_ + buffer_len_, data.data(), take);
        buffer_len_ += take;
        off += take;
        if (buffer_len_ == 64) {
            compress(buffer_);
            buffer_len_ = 0;
        }
    }
    while (off + 64 <= data.size()) {
        compress(data.data() + off);
        off += 64;
    }
    if (off < data.size()) {
        std::memcpy(buffer_, data.data() + off, data.size() - off);
        buffer_len_ = data.size() - off;
    }
}

std::array<std::uint8_t, 32> Sha256::finish() {
    const std::uint64_t bit_len = total_len_ * 8;
    const std::uint8_t one = 0x80;
    update(std::span<const std::uint8_t>(&one, 1));
    const std::uint8_t zero = 0x00;
    while (buffer_len_ != 56) update(std::span<const std::uint8_t>(&zero, 1));
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    update(len_bytes);
    std::array<std::uint8_t, 32> out{};
    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    return out;
}

std::array<std::uint8_t, 32> Sha256::digest(std::span<const std::uint8_t> data) {
    Sha256 hasher;
    hasher.update(data);
    return hasher.finish();
}

// ---------------------------------------------------------------- SipHash ---

namespace {
inline std::uint64_t rotl64(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

struct SipState {
    std::uint64_t v0, v1, v2, v3;

    explicit SipState(const Block128& key) {
        v0 = key.lo ^ he::kernels::kSipHashInit[0];
        v1 = key.hi ^ he::kernels::kSipHashInit[1];
        v2 = key.lo ^ he::kernels::kSipHashInit[2];
        v3 = key.hi ^ he::kernels::kSipHashInit[3];
    }

    void round() {
        v0 += v1; v1 = rotl64(v1, 13); v1 ^= v0; v0 = rotl64(v0, 32);
        v2 += v3; v3 = rotl64(v3, 16); v3 ^= v2;
        v0 += v3; v3 = rotl64(v3, 21); v3 ^= v0;
        v2 += v1; v1 = rotl64(v1, 17); v1 ^= v2; v2 = rotl64(v2, 32);
    }
};
}  // namespace

std::uint64_t siphash24(const Block128& key, std::span<const std::uint8_t> data) {
    SipState s(key);
    const std::size_t n = data.size();
    std::size_t off = 0;
    while (off + 8 <= n) {
        std::uint64_t m;
        std::memcpy(&m, data.data() + off, 8);
        s.v3 ^= m;
        s.round();
        s.round();
        s.v0 ^= m;
        off += 8;
    }
    std::uint64_t last = static_cast<std::uint64_t>(n) << 56;
    for (std::size_t i = 0; off + i < n; ++i)
        last |= static_cast<std::uint64_t>(data[off + i]) << (8 * i);
    s.v3 ^= last;
    s.round();
    s.round();
    s.v0 ^= last;
    s.v2 ^= 0xFF;
    s.round();
    s.round();
    s.round();
    s.round();
    return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

namespace {
// Two independent fixed keys -> 128-bit output from two 64-bit PRFs. The
// kernel table's cr_hash_batch computes the same function in batches.
using he::kernels::kCrHashKeys;
constexpr Block128 kCrKey1{kCrHashKeys[0][0], kCrHashKeys[0][1]};
constexpr Block128 kCrKey2{kCrHashKeys[1][0], kCrHashKeys[1][1]};
}  // namespace

Block128 cr_hash(std::uint64_t tweak, const Block128& x) {
    std::uint8_t buf[24];
    std::memcpy(buf, &tweak, 8);
    x.to_bytes(buf + 8);
    return {siphash24(kCrKey1, buf), siphash24(kCrKey2, buf)};
}

std::uint64_t cr_hash_u64(std::uint64_t tweak, const Block128& x) {
    std::uint8_t buf[24];
    std::memcpy(buf, &tweak, 8);
    x.to_bytes(buf + 8);
    return siphash24(kCrKey1, buf);
}

namespace {
/// The bytes of a span, as the kernel table's byte pointers take them.
template <typename T>
const std::uint8_t* bytes_of(std::span<const T> s) {
    return reinterpret_cast<const std::uint8_t*>(std::as_bytes(s).data());
}
template <typename T>
std::uint8_t* bytes_of(std::span<T> s) {
    return reinterpret_cast<std::uint8_t*>(std::as_writable_bytes(s).data());
}
}  // namespace

void cr_hash_batch(std::span<const Block128> x, std::uint64_t tweak, std::uint64_t step,
                   const Block128& offset, std::span<Block128> out) {
    require(out.size() == x.size(), "cr_hash_batch output size mismatch");
    const std::uint64_t off[2] = {offset.lo, offset.hi};
    he::kernels::active().cr_hash_batch(bytes_of(x), x.size(), tweak, step, off, /*wide=*/true,
                                        bytes_of(out));
}

void cr_hash_batch(std::span<const Block128> x, std::uint64_t tweak, std::uint64_t step,
                   const Block128& offset, std::span<std::uint64_t> out) {
    require(out.size() == x.size(), "cr_hash_batch output size mismatch");
    const std::uint64_t off[2] = {offset.lo, offset.hi};
    he::kernels::active().cr_hash_batch(bytes_of(x), x.size(), tweak, step, off, /*wide=*/false,
                                        bytes_of(out));
}

}  // namespace c2pi::crypto
