/**
 * @file
 * DES and Triple-DES (EDE3).
 *
 * 3DES is the paper's worst-performing cipher: 48 Feistel rounds per
 * 64-bit block plus the initial/final general bit permutations that map
 * poorly onto a general-purpose ISA (the motivation for the XBOX
 * instruction). The paper configures 3DES per the SSLv3 specification:
 * EDE with three independent 56-bit keys, CBC mode.
 */

#ifndef CRYPTARCH_CRYPTO_DES_HH
#define CRYPTARCH_CRYPTO_DES_HH

#include <array>
#include <cstdint>
#include <span>

#include "crypto/cipher.hh"

namespace cryptarch::crypto
{

/**
 * Single-key DES core. Exposed (rather than kept private to 3DES)
 * because the CryptISA 3DES kernel and the unit tests validate against
 * single-DES known-answer vectors.
 *
 * Round layout (after libdes): each round's 48-bit subkey is kept as
 * two packed words whose 6-bit fields line up with two rotations of
 * the right half, so the f function is two rotates, two XORs and
 * eight SP-box reads at fixed shifts. IP and FP are eight byte-indexed
 * table reads each.
 */
class Des
{
  public:
    /**
     * One round's subkey, packed for the f function. The E chunks of
     * S-boxes 0, 2, 4, 6 sit at bits 24, 16, 8, 0 of rotr(R, 3); those
     * of S-boxes 7, 1, 3, 5 at bits 24, 16, 8, 0 of rotr(R, 7). `even`
     * and `odd` hold the matching subkey chunks on the same fields.
     */
    struct RoundKey
    {
        uint32_t even = 0;
        uint32_t odd = 0;
    };

    /** Expand a 64-bit key (parity bits ignored) into 16 subkeys. */
    void setKey(std::span<const uint8_t, 8> key);

    /** Encrypt a 64-bit block presented as a big-endian integer. */
    uint64_t encrypt(uint64_t block) const;

    /** Decrypt a 64-bit block presented as a big-endian integer. */
    uint64_t decrypt(uint64_t block) const;

    /** The 16 round keys, in encryption order. */
    const std::array<RoundKey, 16> &roundKeys() const { return keys; }

    /** Pack a 48-bit subkey (bit 47 first E-bit) into a RoundKey. */
    static RoundKey packSubkey(uint64_t subkey);

    /** Initial permutation, public for kernel cross-validation. */
    static uint64_t initialPermutation(uint64_t v);
    /** Final permutation (inverse of IP). */
    static uint64_t finalPermutation(uint64_t v);
    /** The Feistel f-function: 32-bit half, packed round key. */
    static uint32_t feistel(uint32_t half, RoundKey key);

    /**
     * Combined S-box + P-permutation lookup tables ("SP boxes"), eight
     * 64-entry tables of 32-bit words. This is the classic software
     * formulation CryptSoft-style implementations use and what the
     * CryptISA kernel's SBOX instructions index.
     */
    static const std::array<std::array<uint32_t, 64>, 8> &spBoxes();

  private:
    std::array<RoundKey, 16> keys{};
};

/** Triple-DES EDE3 block cipher (24-byte key = K1 | K2 | K3). */
class TripleDes : public BlockCipher
{
  public:
    const CipherInfo &info() const override;
    void setKey(std::span<const uint8_t> key) override;
    void encryptBlock(const uint8_t *in, uint8_t *out) const override;
    void decryptBlock(const uint8_t *in, uint8_t *out) const override;
    /**
     * Four blocks at a time, their rounds interleaved. Like the
     * single-block calls, each block runs one IP and one FP around
     * the three cores' rounds: the FP·IP pairs between cores cancel.
     */
    void encryptBlocks(const uint8_t *in, uint8_t *out,
                       size_t blocks) const override;
    uint64_t setupOpEstimate() const override;

    /** The three DES cores, for kernel table extraction. */
    const Des &core(int i) const { return des[i]; }

  private:
    std::array<Des, 3> des;
};

} // namespace cryptarch::crypto

#endif // CRYPTARCH_CRYPTO_DES_HH
