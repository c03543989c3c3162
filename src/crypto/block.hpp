#pragma once

/// \file block.hpp
/// 128-bit block — wire labels in garbled circuits, OT messages, PRG seeds.

#include <cstdint>
#include <cstring>
#include <span>

namespace c2pi::crypto {

struct Block128 {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend Block128 operator^(const Block128& a, const Block128& b) {
        return {a.lo ^ b.lo, a.hi ^ b.hi};
    }
    friend Block128 operator&(const Block128& a, const Block128& b) {
        return {a.lo & b.lo, a.hi & b.hi};
    }
    Block128& operator^=(const Block128& b) {
        lo ^= b.lo;
        hi ^= b.hi;
        return *this;
    }
    friend bool operator==(const Block128&, const Block128&) = default;

    /// Point-and-permute colour bit (lsb of the label).
    [[nodiscard]] bool colour() const { return (lo & 1ULL) != 0; }

    void to_bytes(std::uint8_t out[16]) const {
        std::memcpy(out, &lo, 8);
        std::memcpy(out + 8, &hi, 8);
    }
    [[nodiscard]] static Block128 from_bytes(const std::uint8_t in[16]) {
        Block128 b;
        std::memcpy(&b.lo, in, 8);
        std::memcpy(&b.hi, in + 8, 8);
        return b;
    }
};

static_assert(sizeof(Block128) == 16);

}  // namespace c2pi::crypto
