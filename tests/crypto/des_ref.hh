/**
 * @file
 * FIPS 46 reference DES for the tests: every permutation is a loop of
 * single-bit gathers straight off the standard's tables, and the f
 * function walks the eight 6-bit E chunks of a 48-bit subkey one at a
 * time. This is the formulation crypto/des.cc used before its rounds
 * moved to packed subkey words and its IP/FP to byte-indexed tables;
 * the tests hold the fast code to it.
 */

#ifndef CRYPTARCH_TESTS_CRYPTO_DES_REF_HH
#define CRYPTARCH_TESTS_CRYPTO_DES_REF_HH

#include <array>
#include <cstdint>

#include "crypto/des.hh"

namespace cryptarch::crypto::des_ref
{

// Bit numbering follows the standard: bit 1 is the most significant
// bit of the input.

inline constexpr int ip_table[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
};

inline constexpr int pc1_table[56] = {
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
};

inline constexpr int pc2_table[48] = {
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
};

inline constexpr int key_shifts[16] = {
    1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1,
};

/**
 * Output bit i (1-based, MSB first, @p out_bits wide) takes input bit
 * table[i-1] of an @p in_bits wide value.
 */
inline uint64_t
permuteBits(uint64_t v, const int *table, int out_bits, int in_bits)
{
    uint64_t r = 0;
    for (int i = 0; i < out_bits; i++) {
        uint64_t bit = (v >> (in_bits - table[i])) & 1;
        r |= bit << (out_bits - 1 - i);
    }
    return r;
}

inline uint64_t
initialPermutation(uint64_t v)
{
    return permuteBits(v, ip_table, 64, 64);
}

/** FP is IP's inverse, derived rather than transcribed. */
inline uint64_t
finalPermutation(uint64_t v)
{
    static const std::array<int, 64> fp = [] {
        std::array<int, 64> t{};
        for (int i = 0; i < 64; i++)
            t[ip_table[i] - 1] = i + 1;
        return t;
    }();
    return permuteBits(v, fp.data(), 64, 64);
}

inline uint32_t
rotr32(uint32_t x, unsigned n)
{
    n &= 31;
    return n ? (x >> n) | (x << (32 - n)) : x;
}

/** The f function of a 32-bit half under a 48-bit subkey. */
inline uint32_t
feistel(uint32_t half, uint64_t subkey)
{
    const auto &sp = Des::spBoxes();
    // E expansion: chunk i is spec bits 4i..4i+5 of the half, taken
    // cyclically (bit 0 means bit 32). Rotating right by one aligns
    // chunk boundaries so each chunk is a 6-bit field of the rotation.
    uint32_t q = rotr32(half, 1);
    uint32_t out = 0;
    for (int i = 0; i < 8; i++) {
        uint32_t chunk = rotr32(q, (26 - 4 * i) & 31) & 0x3F;
        uint32_t k6 = (subkey >> (42 - 6 * i)) & 0x3F;
        out ^= sp[i][chunk ^ k6];
    }
    return out;
}

/** The sixteen 48-bit subkeys of a 64-bit key (parity bits ignored). */
inline std::array<uint64_t, 16>
subkeys(uint64_t key)
{
    std::array<uint64_t, 16> keys{};
    uint64_t cd = permuteBits(key, pc1_table, 56, 64);
    uint32_t c = static_cast<uint32_t>(cd >> 28);
    uint32_t d = static_cast<uint32_t>(cd & 0x0FFFFFFF);
    for (int round = 0; round < 16; round++) {
        int s = key_shifts[round];
        c = ((c << s) | (c >> (28 - s))) & 0x0FFFFFFF;
        d = ((d << s) | (d >> (28 - s))) & 0x0FFFFFFF;
        uint64_t merged = (static_cast<uint64_t>(c) << 28) | d;
        keys[round] = permuteBits(merged, pc2_table, 48, 56);
    }
    return keys;
}

/** Single DES: IP, sixteen rounds, the final swap, FP. */
inline uint64_t
crypt(uint64_t block, uint64_t key, bool decrypt)
{
    const auto keys = subkeys(key);
    uint64_t permuted = initialPermutation(block);
    uint32_t l = static_cast<uint32_t>(permuted >> 32);
    uint32_t r = static_cast<uint32_t>(permuted);
    for (int i = 0; i < 16; i++) {
        uint32_t next_r = l ^ feistel(r, keys[decrypt ? 15 - i : i]);
        l = r;
        r = next_r;
    }
    return finalPermutation((static_cast<uint64_t>(r) << 32) | l);
}

} // namespace cryptarch::crypto::des_ref

#endif // CRYPTARCH_TESTS_CRYPTO_DES_REF_HH
