#include "crypto/des.hh"

#include <bit>
#include <stdexcept>

#include "util/bitops.hh"

namespace cryptarch::crypto
{

using util::load64be;
using util::rotr32;
using util::store64be;

namespace
{

// FIPS 46 tables. Bit numbering follows the standard: bit 1 is the most
// significant bit of the input.

constexpr int ip_table[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
};

constexpr int pc1_table[56] = {
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
};

constexpr int pc2_table[48] = {
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
};

constexpr int key_shifts[16] = {
    1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1,
};

constexpr int p_table[32] = {
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
};

constexpr uint8_t sboxes[8][64] = {
    {
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    },
    {
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    },
    {
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    },
    {
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    },
    {
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    },
    {
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    },
    {
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    },
    {
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    },
};

/**
 * Generic bit permutation with FIPS numbering: output bit i (1-based,
 * MSB first, @p out_bits wide) takes input bit table[i-1] of an
 * @p in_bits wide value.
 */
uint64_t
permuteBits(uint64_t v, const int *table, int out_bits, int in_bits)
{
    uint64_t r = 0;
    for (int i = 0; i < out_bits; i++) {
        uint64_t bit = (v >> (in_bits - table[i])) & 1;
        r |= bit << (out_bits - 1 - i);
    }
    return r;
}

/** S-box lookup: 6-bit chunk value (spec bit order) through box i. */
uint32_t
sboxLookup(int box, uint32_t chunk)
{
    uint32_t row = ((chunk >> 4) & 2) | (chunk & 1);
    uint32_t col = (chunk >> 1) & 0xF;
    return sboxes[box][row * 16 + col];
}

using SpBoxes = std::array<std::array<uint32_t, 64>, 8>;

/**
 * A 64-bit bit permutation as eight byte-indexed tables: entry [j][v]
 * is the permutation of byte value v at byte j (0 = most significant),
 * so the permutation of a word is the XOR of its eight bytes' entries.
 */
using ByteTables = std::array<std::array<uint64_t, 256>, 8>;

ByteTables
byteTables(const int *table)
{
    // Where each input bit (LSB = 0) lands; a byte's entry is the XOR
    // of its set bits' images, each built from one with a bit fewer.
    uint64_t image[64] = {};
    for (int i = 0; i < 64; i++)
        image[64 - table[i]] |= 1ull << (63 - i);
    ByteTables t{};
    for (int j = 0; j < 8; j++)
        for (unsigned v = 1; v < 256; v++)
            t[j][v] = t[j][v & (v - 1)]
                ^ image[56 - 8 * j + std::countr_zero(v)];
    return t;
}

uint64_t
permuteBytes(const ByteTables &t, uint64_t v)
{
    uint64_t r = 0;
    for (int j = 0; j < 8; j++)
        r ^= t[j][(v >> (56 - 8 * j)) & 0xFF];
    return r;
}

/** Everything the rounds read, built once from the FIPS tables. */
struct Tables
{
    SpBoxes sp{};
    ByteTables ip{};
    ByteTables fp{};

    Tables()
    {
        // SP box i maps a 6-bit E-chunk to the P-permuted contribution
        // of S-box i: the 4-bit S output placed in its nibble position
        // and run through P.
        for (int box = 0; box < 8; box++) {
            for (uint32_t v = 0; v < 64; v++) {
                uint32_t nibble = sboxLookup(box, v);
                uint64_t placed = static_cast<uint64_t>(nibble)
                    << (28 - 4 * box);
                sp[box][v] = static_cast<uint32_t>(
                    permuteBits(placed, p_table, 32, 32));
            }
        }
        // FP is IP's inverse, derived rather than transcribed.
        int fp_table[64];
        for (int i = 0; i < 64; i++)
            fp_table[ip_table[i] - 1] = i + 1;
        ip = byteTables(ip_table);
        fp = byteTables(fp_table);
    }
};

const Tables &
tables()
{
    static const Tables t;
    return t;
}

/** The f function over the packed round key (see Des::RoundKey). */
inline uint32_t
f(const SpBoxes &sp, uint32_t r, Des::RoundKey k)
{
    const uint32_t a = rotr32(r, 3) ^ k.even;
    const uint32_t b = rotr32(r, 7) ^ k.odd;
    return sp[0][(a >> 24) & 0x3F] ^ sp[2][(a >> 16) & 0x3F]
        ^ sp[4][(a >> 8) & 0x3F] ^ sp[6][a & 0x3F]
        ^ sp[7][(b >> 24) & 0x3F] ^ sp[1][(b >> 16) & 0x3F]
        ^ sp[3][(b >> 8) & 0x3F] ^ sp[5][b & 0x3F];
}

/**
 * Sixteen rounds on L independent blocks at once, two rounds per
 * step so the halves never swap: (l, r) go in as (L0, R0) and come
 * out as (L16, R16), i.e. the standard's pre-output block is r:l.
 * Decryption walks the keys backwards.
 */
template <bool Decrypt, size_t L>
inline void
sixteenRounds(const SpBoxes &sp, const std::array<Des::RoundKey, 16> &k,
              uint32_t (&l)[L], uint32_t (&r)[L])
{
    for (int i = 0; i < 16; i += 2) {
        const Des::RoundKey k0 = k[Decrypt ? 15 - i : i];
        const Des::RoundKey k1 = k[Decrypt ? 14 - i : i + 1];
        for (size_t j = 0; j < L; j++)
            l[j] ^= f(sp, r[j], k0);
        for (size_t j = 0; j < L; j++)
            r[j] ^= f(sp, l[j], k1);
    }
}

/** Single DES on one block: IP, sixteen rounds, FP. */
template <bool Decrypt>
uint64_t
single(const std::array<Des::RoundKey, 16> &k, uint64_t block)
{
    const Tables &t = tables();
    const uint64_t v = permuteBytes(t.ip, block);
    uint32_t l[1] = {static_cast<uint32_t>(v >> 32)};
    uint32_t r[1] = {static_cast<uint32_t>(v)};
    sixteenRounds<Decrypt>(t.sp, k, l, r);
    return permuteBytes(t.fp, (static_cast<uint64_t>(r[0]) << 32) | l[0]);
}

/**
 * 3DES on L blocks side by side: one IP, the three cores' rounds (each
 * core's output halves are the next core's input halves swapped, so the
 * arrays trade places), one FP. The lanes are independent chains, so
 * their SP-box reads overlap.
 */
template <bool Decrypt, size_t L>
void
ede(const std::array<Des, 3> &des, const uint8_t *in, uint8_t *out)
{
    const Tables &t = tables();
    uint32_t l[L], r[L];
    for (size_t j = 0; j < L; j++) {
        const uint64_t v = permuteBytes(t.ip, load64be(in + 8 * j));
        l[j] = static_cast<uint32_t>(v >> 32);
        r[j] = static_cast<uint32_t>(v);
    }
    // E(K1) D(K2) E(K3); decryption is D(K3) E(K2) D(K1).
    sixteenRounds<Decrypt>(t.sp, des[Decrypt ? 2 : 0].roundKeys(), l, r);
    sixteenRounds<!Decrypt>(t.sp, des[1].roundKeys(), r, l);
    sixteenRounds<Decrypt>(t.sp, des[Decrypt ? 0 : 2].roundKeys(), l, r);
    for (size_t j = 0; j < L; j++)
        store64be(out + 8 * j,
                  permuteBytes(t.fp, (static_cast<uint64_t>(r[j]) << 32)
                                         | l[j]));
}

/** Blocks per TripleDes::encryptBlocks step. */
constexpr size_t des_lanes = 4;

} // namespace

uint64_t
Des::initialPermutation(uint64_t v)
{
    return permuteBytes(tables().ip, v);
}

uint64_t
Des::finalPermutation(uint64_t v)
{
    return permuteBytes(tables().fp, v);
}

const std::array<std::array<uint32_t, 64>, 8> &
Des::spBoxes()
{
    return tables().sp;
}

Des::RoundKey
Des::packSubkey(uint64_t subkey)
{
    auto chunk = [&](int i) {
        return static_cast<uint32_t>((subkey >> (42 - 6 * i)) & 0x3F);
    };
    return {(chunk(0) << 24) | (chunk(2) << 16) | (chunk(4) << 8)
                | chunk(6),
            (chunk(7) << 24) | (chunk(1) << 16) | (chunk(3) << 8)
                | chunk(5)};
}

uint32_t
Des::feistel(uint32_t half, RoundKey key)
{
    return f(tables().sp, half, key);
}

void
Des::setKey(std::span<const uint8_t, 8> key)
{
    uint64_t k = load64be(key.data());
    uint64_t cd = permuteBits(k, pc1_table, 56, 64);
    uint32_t c = static_cast<uint32_t>(cd >> 28);
    uint32_t d = static_cast<uint32_t>(cd & 0x0FFFFFFF);
    for (int round = 0; round < 16; round++) {
        int s = key_shifts[round];
        c = ((c << s) | (c >> (28 - s))) & 0x0FFFFFFF;
        d = ((d << s) | (d >> (28 - s))) & 0x0FFFFFFF;
        uint64_t merged = (static_cast<uint64_t>(c) << 28) | d;
        keys[round] = packSubkey(permuteBits(merged, pc2_table, 48, 56));
    }
}

uint64_t
Des::encrypt(uint64_t block) const
{
    return single<false>(keys, block);
}

uint64_t
Des::decrypt(uint64_t block) const
{
    return single<true>(keys, block);
}

// ---------------------------------------------------------------------
// Triple-DES EDE3
// ---------------------------------------------------------------------

const CipherInfo &
TripleDes::info() const
{
    return cipherInfo(CipherId::TripleDES);
}

void
TripleDes::setKey(std::span<const uint8_t> key)
{
    if (key.size() != 24)
        throw std::invalid_argument("TripleDes: key must be 24 bytes");
    for (int i = 0; i < 3; i++)
        des[i].setKey(key.subspan(i * 8).first<8>());
}

void
TripleDes::encryptBlock(const uint8_t *in, uint8_t *out) const
{
    ede<false, 1>(des, in, out);
}

void
TripleDes::decryptBlock(const uint8_t *in, uint8_t *out) const
{
    ede<true, 1>(des, in, out);
}

void
TripleDes::encryptBlocks(const uint8_t *in, uint8_t *out,
                         size_t blocks) const
{
    size_t i = 0;
    for (; i + des_lanes <= blocks; i += des_lanes)
        ede<false, des_lanes>(des, in + 8 * i, out + 8 * i);
    for (; i < blocks; i++)
        ede<false, 1>(des, in + 8 * i, out + 8 * i);
}

uint64_t
TripleDes::setupOpEstimate() const
{
    // Three key schedules; each runs PC1 (56 bit gathers), then 16 rounds
    // of two 28-bit rotates plus PC2 (48 bit gathers). A bit gather is
    // roughly 4 baseline instructions (shift/mask/shift/or).
    const uint64_t per_key = 56 * 4 + 16 * (2 * 4 + 48 * 4);
    return 3 * per_key;
}

} // namespace cryptarch::crypto
