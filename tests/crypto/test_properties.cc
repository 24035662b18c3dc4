/**
 * @file
 * Parameterized property tests shared by every block cipher: roundtrip,
 * plaintext/key avalanche (the paper's definition of strong diffusion:
 * any input change perturbs each output bit with probability ~50%), and
 * key sensitivity.
 */

#include <gtest/gtest.h>

#include <bit>

#include "crypto/cipher.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch::crypto;
using cryptarch::util::Xorshift64;

std::vector<CipherId>
blockCipherIds()
{
    std::vector<CipherId> ids;
    for (const auto &info : cipherCatalog()) {
        if (!info.isStream)
            ids.push_back(info.id);
    }
    return ids;
}

int
bitDifference(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    int bits = 0;
    for (size_t i = 0; i < a.size(); i++)
        bits += std::popcount(static_cast<unsigned>(a[i] ^ b[i]));
    return bits;
}

class BlockCipherProperties : public ::testing::TestWithParam<CipherId>
{
  protected:
    void
    SetUp() override
    {
        cipher = makeBlockCipher(GetParam());
        info = &cipher->info();
    }

    std::vector<uint8_t>
    encrypt(const std::vector<uint8_t> &pt)
    {
        std::vector<uint8_t> ct(info->blockBytes);
        cipher->encryptBlock(pt.data(), ct.data());
        return ct;
    }

    std::unique_ptr<BlockCipher> cipher;
    const CipherInfo *info = nullptr;
};

TEST_P(BlockCipherProperties, RoundtripRandomKeys)
{
    Xorshift64 rng(201);
    for (int trial = 0; trial < 25; trial++) {
        cipher->setKey(rng.bytes(info->keyBits / 8));
        auto pt = rng.bytes(info->blockBytes);
        auto ct = encrypt(pt);
        std::vector<uint8_t> back(info->blockBytes);
        cipher->decryptBlock(ct.data(), back.data());
        EXPECT_EQ(back, pt);
    }
}

TEST_P(BlockCipherProperties, EncryptionIsNotIdentity)
{
    Xorshift64 rng(202);
    cipher->setKey(rng.bytes(info->keyBits / 8));
    auto pt = rng.bytes(info->blockBytes);
    EXPECT_NE(encrypt(pt), pt);
}

// Plaintext avalanche: flipping any single input bit flips ~50% of
// output bits. We accept [25%, 75%] averaged over trials per flipped
// bit position, a loose band that still catches broken diffusion.
TEST_P(BlockCipherProperties, PlaintextAvalanche)
{
    Xorshift64 rng(203);
    cipher->setKey(rng.bytes(info->keyBits / 8));
    const int block_bits = info->blockBytes * 8;
    for (int bit = 0; bit < block_bits; bit += 7) {
        int total = 0;
        const int trials = 12;
        for (int t = 0; t < trials; t++) {
            auto pt = rng.bytes(info->blockBytes);
            auto ct_a = encrypt(pt);
            pt[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
            auto ct_b = encrypt(pt);
            total += bitDifference(ct_a, ct_b);
        }
        double avg = static_cast<double>(total) / trials;
        EXPECT_GT(avg, 0.25 * block_bits) << "bit " << bit;
        EXPECT_LT(avg, 0.75 * block_bits) << "bit " << bit;
    }
}

// Key avalanche: flipping any single key bit changes the ciphertext of
// a fixed plaintext substantially.
TEST_P(BlockCipherProperties, KeyAvalanche)
{
    Xorshift64 rng(204);
    auto key = rng.bytes(info->keyBits / 8);
    auto pt = rng.bytes(info->blockBytes);
    cipher->setKey(key);
    auto base = encrypt(pt);
    const int block_bits = info->blockBytes * 8;
    for (unsigned bit = 0; bit < info->keyBits; bit += 13) {
        // DES ignores the parity bit of each key byte (the LSB under
        // big-endian loading), so skip those for 3DES.
        if (GetParam() == CipherId::TripleDES && bit % 8 == 0)
            continue;
        auto flipped = key;
        flipped[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
        cipher->setKey(flipped);
        auto ct = encrypt(pt);
        int diff = bitDifference(base, ct);
        EXPECT_GT(diff, block_bits / 4) << "key bit " << bit;
        EXPECT_LT(diff, 3 * block_bits / 4) << "key bit " << bit;
    }
}

// Two different random keys must produce different ciphertext.
TEST_P(BlockCipherProperties, KeySensitivity)
{
    Xorshift64 rng(205);
    auto pt = rng.bytes(info->blockBytes);
    cipher->setKey(rng.bytes(info->keyBits / 8));
    auto ct_a = encrypt(pt);
    cipher->setKey(rng.bytes(info->keyBits / 8));
    auto ct_b = encrypt(pt);
    EXPECT_NE(ct_a, ct_b);
}

// Decrypting with the wrong key must not recover the plaintext.
TEST_P(BlockCipherProperties, WrongKeyFailsToDecrypt)
{
    Xorshift64 rng(206);
    auto pt = rng.bytes(info->blockBytes);
    cipher->setKey(rng.bytes(info->keyBits / 8));
    auto ct = encrypt(pt);
    cipher->setKey(rng.bytes(info->keyBits / 8));
    std::vector<uint8_t> back(info->blockBytes);
    cipher->decryptBlock(ct.data(), back.data());
    EXPECT_NE(back, pt);
}

// The multi-block entry point is a batch of independent encryptBlock()
// calls, whatever lane count a cipher interleaves: check 1-9 blocks
// (full lane groups plus every tail), in place and out of place.
TEST_P(BlockCipherProperties, EncryptBlocksMatchesPerBlock)
{
    Xorshift64 rng(0xB10C5 + static_cast<uint64_t>(GetParam()));
    const size_t bb = info->blockBytes;
    for (size_t blocks = 1; blocks <= 9; blocks++) {
        cipher->setKey(rng.bytes(info->keyBits / 8));
        const auto pt = rng.bytes(blocks * bb);
        std::vector<uint8_t> expect(pt.size());
        for (size_t i = 0; i < blocks; i++)
            cipher->encryptBlock(pt.data() + i * bb, expect.data() + i * bb);
        std::vector<uint8_t> out(pt.size());
        cipher->encryptBlocks(pt.data(), out.data(), blocks);
        EXPECT_EQ(out, expect) << blocks << " blocks";
        auto in_place = pt;
        cipher->encryptBlocks(in_place.data(), in_place.data(), blocks);
        EXPECT_EQ(in_place, expect) << blocks << " blocks in place";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBlockCiphers, BlockCipherProperties,
    ::testing::ValuesIn(blockCipherIds()),
    [](const ::testing::TestParamInfo<CipherId> &info) {
        return cipherInfo(info.param).name;
    });

} // namespace
