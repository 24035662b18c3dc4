/**
 * @file
 * Blowfish block cipher (Schneier, 1993).
 *
 * Blowfish is the paper's setup-cost outlier (Figure 6): key expansion
 * encrypts the all-zero block 521 times to fill the P-array and the four
 * 256-entry S-boxes — the work of encrypting ~8 KB of payload — so setup
 * only amortizes below 10% for sessions longer than 64 KB.
 *
 * The initialization constants are the hexadecimal digits of pi, read
 * from the committed table behind util::piFractionWords (see DESIGN.md).
 */

#ifndef CRYPTARCH_CRYPTO_BLOWFISH_HH
#define CRYPTARCH_CRYPTO_BLOWFISH_HH

#include <array>
#include <cstdint>

#include "crypto/cipher.hh"

namespace cryptarch::crypto
{

/** Blowfish with the paper's 128-bit key configuration. */
class Blowfish : public BlockCipher
{
  public:
    const CipherInfo &info() const override;
    void setKey(std::span<const uint8_t> key) override;
    void encryptBlock(const uint8_t *in, uint8_t *out) const override;
    void decryptBlock(const uint8_t *in, uint8_t *out) const override;
    /** Four blocks at a time, their rounds interleaved. */
    void encryptBlocks(const uint8_t *in, uint8_t *out,
                       size_t blocks) const override;
    uint64_t setupOpEstimate() const override;

    /** Expanded P-array (18 words), for the CryptISA kernel. */
    const std::array<uint32_t, 18> &pArray() const { return p; }
    /** Expanded S-boxes (4 x 256 words), for the CryptISA kernel. */
    const std::array<std::array<uint32_t, 256>, 4> &sBoxes() const
    {
        return s;
    }

    /** Encrypt a 64-bit block given as (left, right) word pair. */
    void encryptWords(uint32_t &l, uint32_t &r) const;
    /** Decrypt a 64-bit block given as (left, right) word pair. */
    void decryptWords(uint32_t &l, uint32_t &r) const;

  private:
    uint32_t f(uint32_t x) const;
    /** encryptWords() on L blocks side by side, rounds interleaved. */
    template <size_t L>
    void encryptLanes(uint32_t (&l)[L], uint32_t (&r)[L]) const;

    std::array<uint32_t, 18> p{};
    std::array<std::array<uint32_t, 256>, 4> s{};
};

} // namespace cryptarch::crypto

#endif // CRYPTARCH_CRYPTO_BLOWFISH_HH
