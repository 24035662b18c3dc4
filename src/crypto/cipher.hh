/**
 * @file
 * Public interfaces of the cryptarch cipher library.
 *
 * Eight private-key symmetric ciphers are provided — the exact suite
 * analyzed by the paper (Table 1): 3DES, Blowfish, IDEA, MARS, RC4, RC6,
 * Rijndael and Twofish. Seven are block ciphers behind @ref BlockCipher;
 * RC4 is a stream cipher behind @ref StreamCipher.
 */

#ifndef CRYPTARCH_CRYPTO_CIPHER_HH
#define CRYPTARCH_CRYPTO_CIPHER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace cryptarch::crypto
{

/** Identifiers for the eight analyzed ciphers, in Table 1 order. */
enum class CipherId
{
    TripleDES,
    Blowfish,
    IDEA,
    MARS,
    RC4,
    RC6,
    Rijndael,
    Twofish,
};

/** Static description of a cipher configuration (paper Table 1). */
struct CipherInfo
{
    CipherId id;
    std::string name;
    unsigned keyBits;   ///< key size used for all experiments
    unsigned blockBytes; ///< bytes per kernel application (RC4: 1)
    unsigned rounds;    ///< kernel rounds per block
    std::string author;
    std::string application;
    bool isStream;      ///< true for RC4
};

/**
 * A key-parameterized block cipher. Implementations are stateless after
 * setKey() apart from the expanded key material, so one object may
 * encrypt and decrypt interleaved.
 */
class BlockCipher
{
  public:
    virtual ~BlockCipher() = default;

    /** Static configuration of this cipher. */
    virtual const CipherInfo &info() const = 0;

    /**
     * Expand a key. Throws std::invalid_argument unless key.size() ==
     * info().keyBits / 8.
     */
    virtual void setKey(std::span<const uint8_t> key) = 0;

    /** Encrypt one block; @p in and @p out hold info().blockBytes. */
    virtual void encryptBlock(const uint8_t *in, uint8_t *out) const = 0;

    /** Decrypt one block; @p in and @p out hold info().blockBytes. */
    virtual void decryptBlock(const uint8_t *in, uint8_t *out) const = 0;

    /**
     * Encrypt @p blocks independent blocks laid end to end (no
     * chaining): the same bytes as one encryptBlock() per block, and
     * @p in may equal @p out. Ciphers whose rounds gain from running
     * several blocks side by side override this loop.
     */
    virtual void
    encryptBlocks(const uint8_t *in, uint8_t *out, size_t blocks) const
    {
        const size_t b = info().blockBytes;
        for (size_t i = 0; i < blocks; i++)
            encryptBlock(in + i * b, out + i * b);
    }

    /**
     * Estimated dynamic instruction count of setKey() on the paper's
     * baseline machine, used by the Figure 6 setup-cost experiment. The
     * per-cipher derivation is documented next to each implementation.
     */
    virtual uint64_t setupOpEstimate() const = 0;
};

/** A key-parameterized stream cipher (RC4). */
class StreamCipher
{
  public:
    virtual ~StreamCipher() = default;

    virtual const CipherInfo &info() const = 0;

    /** Initialize/reset keystream state. Key length 1..256 bytes. */
    virtual void setKey(std::span<const uint8_t> key) = 0;

    /** XOR the keystream onto @p n bytes (encrypt == decrypt). */
    virtual void process(const uint8_t *in, uint8_t *out, size_t n) = 0;

    /** @copydoc BlockCipher::setupOpEstimate */
    virtual uint64_t setupOpEstimate() const = 0;
};

/** Table 1: the full analyzed suite in presentation order. */
const std::vector<CipherInfo> &cipherCatalog();

/** Info entry for one cipher. */
const CipherInfo &cipherInfo(CipherId id);

/** Construct a fresh block cipher; throws for CipherId::RC4. */
std::unique_ptr<BlockCipher> makeBlockCipher(CipherId id);

/** Construct the RC4 stream cipher. */
std::unique_ptr<StreamCipher> makeStreamCipher(CipherId id);

} // namespace cryptarch::crypto

#endif // CRYPTARCH_CRYPTO_CIPHER_HH
