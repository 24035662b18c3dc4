#include "crypto/blowfish.hh"

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/bitops.hh"
#include "util/pi.hh"

namespace cryptarch::crypto
{

using util::load32be;
using util::store32be;

namespace
{

/** Blocks per Blowfish::encryptBlocks step. */
constexpr size_t bf_lanes = 4;

/** 18 P words + 4*256 S words of pi, copied once per process. */
const std::vector<uint32_t> &
piInit()
{
    static const std::vector<uint32_t> words =
        util::piFractionWords(18 + 4 * 256);
    return words;
}

} // namespace

const CipherInfo &
Blowfish::info() const
{
    return cipherInfo(CipherId::Blowfish);
}

uint32_t
Blowfish::f(uint32_t x) const
{
    uint32_t a = (x >> 24) & 0xFF, b = (x >> 16) & 0xFF;
    uint32_t c = (x >> 8) & 0xFF, d = x & 0xFF;
    return ((s[0][a] + s[1][b]) ^ s[2][c]) + s[3][d];
}

template <size_t L>
void
Blowfish::encryptLanes(uint32_t (&l)[L], uint32_t (&r)[L]) const
{
    for (int i = 0; i < 16; i += 2) {
        for (size_t j = 0; j < L; j++) {
            l[j] ^= p[i];
            r[j] ^= f(l[j]);
        }
        for (size_t j = 0; j < L; j++) {
            r[j] ^= p[i + 1];
            l[j] ^= f(r[j]);
        }
    }
    for (size_t j = 0; j < L; j++) {
        l[j] ^= p[16];
        r[j] ^= p[17];
        std::swap(l[j], r[j]);
    }
}

void
Blowfish::encryptWords(uint32_t &l, uint32_t &r) const
{
    uint32_t lane_l[1] = {l}, lane_r[1] = {r};
    encryptLanes(lane_l, lane_r);
    l = lane_l[0];
    r = lane_r[0];
}

void
Blowfish::decryptWords(uint32_t &l, uint32_t &r) const
{
    for (int i = 16; i > 0; i -= 2) {
        l ^= p[i + 1];
        r ^= f(l);
        r ^= p[i];
        l ^= f(r);
    }
    l ^= p[1];
    r ^= p[0];
    std::swap(l, r);
}

void
Blowfish::setKey(std::span<const uint8_t> key)
{
    if (key.empty() || key.size() > 56)
        throw std::invalid_argument("Blowfish: key must be 1..56 bytes");

    const auto &pi = piInit();
    for (int i = 0; i < 18; i++)
        p[i] = pi[i];
    for (int box = 0; box < 4; box++)
        for (int i = 0; i < 256; i++)
            s[box][i] = pi[18 + box * 256 + i];

    // XOR the key cyclically onto the P-array.
    size_t k = 0;
    for (int i = 0; i < 18; i++) {
        uint32_t word = 0;
        for (int j = 0; j < 4; j++) {
            word = (word << 8) | key[k];
            k = (k + 1) % key.size();
        }
        p[i] ^= word;
    }

    // Replace P and S with successive encryptions of the zero block:
    // (18 + 1024) / 2 + 1 = 521 kernel applications.
    uint32_t l = 0, r = 0;
    for (int i = 0; i < 18; i += 2) {
        encryptWords(l, r);
        p[i] = l;
        p[i + 1] = r;
    }
    for (int box = 0; box < 4; box++) {
        for (int i = 0; i < 256; i += 2) {
            encryptWords(l, r);
            s[box][i] = l;
            s[box][i + 1] = r;
        }
    }
}

void
Blowfish::encryptBlocks(const uint8_t *in, uint8_t *out,
                        size_t blocks) const
{
    size_t i = 0;
    for (; i + bf_lanes <= blocks; i += bf_lanes) {
        uint32_t l[bf_lanes], r[bf_lanes];
        for (size_t j = 0; j < bf_lanes; j++) {
            l[j] = load32be(in + 8 * (i + j));
            r[j] = load32be(in + 8 * (i + j) + 4);
        }
        encryptLanes(l, r);
        for (size_t j = 0; j < bf_lanes; j++) {
            store32be(out + 8 * (i + j), l[j]);
            store32be(out + 8 * (i + j) + 4, r[j]);
        }
    }
    for (; i < blocks; i++)
        encryptBlock(in + 8 * i, out + 8 * i);
}

void
Blowfish::encryptBlock(const uint8_t *in, uint8_t *out) const
{
    uint32_t l = load32be(in), r = load32be(in + 4);
    encryptWords(l, r);
    store32be(out, l);
    store32be(out + 4, r);
}

void
Blowfish::decryptBlock(const uint8_t *in, uint8_t *out) const
{
    uint32_t l = load32be(in), r = load32be(in + 4);
    decryptWords(l, r);
    store32be(out, l);
    store32be(out + 4, r);
}

uint64_t
Blowfish::setupOpEstimate() const
{
    // 521 block encryptions (16 rounds x ~14 baseline instructions per
    // round with load-based S-boxes, plus whitening), plus the 1042-word
    // table initialization XOR/copy loop (~4 instructions per word).
    const uint64_t per_block = 16 * 14 + 10;
    return 521 * per_block + 1042 * 4 + 18 * 8;
}

} // namespace cryptarch::crypto
