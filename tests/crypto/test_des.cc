/** @file Known-answer and property tests for DES / 3DES. */

#include <gtest/gtest.h>

#include "crypto/des.hh"
#include "util/hex.hh"
#include "util/xorshift.hh"

#include "des_ref.hh"

namespace
{

using namespace cryptarch::crypto;
using cryptarch::util::fromHex;
using cryptarch::util::toHex;
using cryptarch::util::Xorshift64;

uint64_t
desEncryptHex(const std::string &key_hex, uint64_t pt)
{
    Des des;
    auto key = fromHex(key_hex);
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    return des.encrypt(pt);
}

// Classic worked example (Stallings / FIPS walkthrough).
TEST(Des, KnownAnswerClassic)
{
    EXPECT_EQ(desEncryptHex("133457799BBCDFF1", 0x0123456789ABCDEFull),
              0x85E813540F0AB405ull);
}

// NBS validation pair exercising IP and the E expansion.
TEST(Des, KnownAnswerNbs)
{
    EXPECT_EQ(desEncryptHex("0101010101010101", 0x95F8A5E5DD31D900ull),
              0x8000000000000000ull);
}

TEST(Des, DecryptInvertsEncrypt)
{
    Des des;
    auto key = fromHex("0123456789abcdef");
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    Xorshift64 rng(1);
    for (int i = 0; i < 100; i++) {
        uint64_t pt = rng.next();
        EXPECT_EQ(des.decrypt(des.encrypt(pt)), pt);
    }
}

// DES complement property: E_~k(~p) == ~E_k(p).
TEST(Des, ComplementProperty)
{
    auto key = fromHex("133457799BBCDFF1");
    auto ckey = key;
    for (auto &b : ckey)
        b = static_cast<uint8_t>(~b);
    Des des, cdes;
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    cdes.setKey(std::span<const uint8_t, 8>(ckey.data(), 8));
    Xorshift64 rng(2);
    for (int i = 0; i < 20; i++) {
        uint64_t pt = rng.next();
        EXPECT_EQ(cdes.encrypt(~pt), ~des.encrypt(pt));
    }
}

// All-ones weak key: encryption is its own inverse.
TEST(Des, WeakKeySelfInverse)
{
    Des des;
    auto key = fromHex("FFFFFFFFFFFFFFFF");
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    Xorshift64 rng(3);
    for (int i = 0; i < 20; i++) {
        uint64_t pt = rng.next();
        EXPECT_EQ(des.encrypt(des.encrypt(pt)), pt);
    }
}

TEST(Des, FinalPermutationInvertsInitial)
{
    Xorshift64 rng(4);
    for (int i = 0; i < 100; i++) {
        uint64_t v = rng.next();
        EXPECT_EQ(Des::finalPermutation(Des::initialPermutation(v)), v);
        EXPECT_EQ(Des::initialPermutation(Des::finalPermutation(v)), v);
    }
}

// IP and FP against the standard's bit-gather definition: every single
// bit, then random words.
TEST(Des, PermutationsMatchFips46Reference)
{
    for (int bit = 0; bit < 64; bit++) {
        uint64_t v = 1ull << bit;
        EXPECT_EQ(Des::initialPermutation(v),
                  des_ref::initialPermutation(v)) << "bit " << bit;
        EXPECT_EQ(Des::finalPermutation(v), des_ref::finalPermutation(v))
            << "bit " << bit;
    }
    Xorshift64 rng(8);
    for (int i = 0; i < 1000; i++) {
        uint64_t v = rng.next();
        EXPECT_EQ(Des::initialPermutation(v),
                  des_ref::initialPermutation(v));
        EXPECT_EQ(Des::finalPermutation(v), des_ref::finalPermutation(v));
    }
}

// Whole single-DES blocks against the reference, random keys.
TEST(Des, MatchesFips46Reference)
{
    Xorshift64 rng(9);
    for (int k = 0; k < 50; k++) {
        auto key = rng.bytes(8);
        Des des;
        des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
        uint64_t key64 = 0;
        for (uint8_t b : key)
            key64 = (key64 << 8) | b;
        for (int b = 0; b < 20; b++) {
            uint64_t v = rng.next();
            EXPECT_EQ(des.encrypt(v), des_ref::crypt(v, key64, false));
            EXPECT_EQ(des.decrypt(v), des_ref::crypt(v, key64, true));
        }
    }
}

// The packed round against the per-chunk f function of the standard,
// on random halves and random 48-bit subkeys.
TEST(Des, RoundMatchesFips46Reference)
{
    Xorshift64 rng(10);
    for (int i = 0; i < 20000; i++) {
        uint32_t half = rng.next32();
        uint64_t subkey = rng.next() & 0xFFFFFFFFFFFFull;
        ASSERT_EQ(Des::feistel(half, Des::packSubkey(subkey)),
                  des_ref::feistel(half, subkey))
            << "half " << half << " subkey " << subkey;
    }
}

// The SP boxes are also the CryptISA kernel's tables: pin all 512
// words (FNV-1a over them) so a change to their layout cannot slip by.
TEST(Des, SpBoxesArePinned)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &box : Des::spBoxes())
        for (uint32_t w : box)
            h = (h ^ w) * 0x100000001b3ull;
    EXPECT_EQ(h, 0xc5e24a8fd1e8cae5ull);
}

// The SP-box formulation of the f function must match a direct
// bit-by-bit evaluation; spot-check its linear-in-key-XOR structure.
TEST(Des, FeistelKeyChunkSensitivity)
{
    // Changing any 6-bit key chunk must change the output for almost
    // all inputs (S-boxes have no fixed distinguishing value).
    Xorshift64 rng(5);
    for (int chunk = 0; chunk < 8; chunk++) {
        uint64_t k = rng.next() & 0xFFFFFFFFFFFFull;
        uint64_t k2 = k ^ (0x21ull << (42 - 6 * chunk));
        int diffs = 0;
        for (int i = 0; i < 50; i++) {
            uint32_t half = rng.next32();
            if (Des::feistel(half, Des::packSubkey(k))
                != Des::feistel(half, Des::packSubkey(k2)))
                diffs++;
        }
        // Distinct S-box inputs collide on ~5% of values (each nibble
        // appears four times per box), so demand most-but-not-all.
        EXPECT_GT(diffs, 40) << "chunk " << chunk;
    }
}

TEST(TripleDes, DegeneratesToSingleDesWithRepeatedKey)
{
    auto key8 = fromHex("0123456789abcdef");
    std::vector<uint8_t> key24;
    for (int i = 0; i < 3; i++)
        key24.insert(key24.end(), key8.begin(), key8.end());

    TripleDes tdes;
    tdes.setKey(key24);
    Des des;
    des.setKey(std::span<const uint8_t, 8>(key8.data(), 8));

    uint8_t pt[8] = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
    uint8_t ct[8];
    tdes.encryptBlock(pt, ct);
    uint64_t expect = des.encrypt(0x0123456789ABCDEFull);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(ct[i], static_cast<uint8_t>(expect >> (56 - 8 * i)));
}

TEST(TripleDes, Roundtrip)
{
    TripleDes tdes;
    auto key = fromHex("0123456789abcdef23456789abcdef01456789abcdef0123");
    tdes.setKey(key);
    Xorshift64 rng(6);
    for (int i = 0; i < 50; i++) {
        auto pt = rng.bytes(8);
        uint8_t ct[8], back[8];
        tdes.encryptBlock(pt.data(), ct);
        tdes.decryptBlock(ct, back);
        EXPECT_EQ(std::vector<uint8_t>(back, back + 8), pt);
    }
}

// One IP and one FP per 3DES block must equal the textbook E·D·E of
// three full single-DES calls, in both directions.
TEST(TripleDes, MatchesThreeSingleDesCalls)
{
    Xorshift64 rng(7);
    for (int k = 0; k < 20; k++) {
        auto key = rng.bytes(24);
        TripleDes tdes;
        tdes.setKey(key);
        std::array<Des, 3> des;
        for (int i = 0; i < 3; i++)
            des[i].setKey(std::span<const uint8_t, 8>(key.data() + 8 * i, 8));
        for (int b = 0; b < 20; b++) {
            uint64_t pt = rng.next();
            uint8_t in[8], out[8];
            for (int i = 0; i < 8; i++)
                in[i] = static_cast<uint8_t>(pt >> (56 - 8 * i));

            uint64_t enc = des[2].encrypt(des[1].decrypt(des[0].encrypt(pt)));
            tdes.encryptBlock(in, out);
            uint64_t got = 0;
            for (int i = 0; i < 8; i++)
                got = (got << 8) | out[i];
            EXPECT_EQ(got, enc) << "key " << k << " block " << b;

            uint64_t dec = des[0].decrypt(des[1].encrypt(des[2].decrypt(pt)));
            tdes.decryptBlock(in, out);
            got = 0;
            for (int i = 0; i < 8; i++)
                got = (got << 8) | out[i];
            EXPECT_EQ(got, dec) << "key " << k << " block " << b;
        }
    }
}

TEST(TripleDes, RejectsBadKeySize)
{
    TripleDes tdes;
    auto key = fromHex("0123456789abcdef");
    EXPECT_THROW(tdes.setKey(key), std::invalid_argument);
}

} // namespace
