/**
 * @file
 * Cross-validation of every CryptISA kernel against the reference
 * ciphers: each (cipher, variant) pair must produce byte-identical CBC
 * ciphertext for randomized keys, IVs and multi-block messages.
 */

#include <gtest/gtest.h>

#include "crypto/cbc.hh"
#include "kernels/kernel.hh"
#include "util/hex.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using crypto::CipherId;
using kernels::KernelBuild;
using kernels::KernelDirection;
using kernels::KernelVariant;
using util::Xorshift64;

/** Reference CBC (or keystream) processing of a whole session. */
std::vector<uint8_t>
referenceProcess(CipherId id, std::span<const uint8_t> key,
                 std::span<const uint8_t> iv,
                 const std::vector<uint8_t> &in, KernelDirection dir)
{
    if (id == CipherId::RC4) {
        auto rc4 = crypto::makeStreamCipher(id);
        rc4->setKey(key);
        std::vector<uint8_t> out(in.size());
        rc4->process(in.data(), out.data(), in.size());
        return out;
    }
    auto cipher = crypto::makeBlockCipher(id);
    cipher->setKey(key);
    if (dir == KernelDirection::Encrypt) {
        crypto::CbcEncryptor enc(*cipher, iv);
        return enc.encrypt(in);
    }
    crypto::CbcDecryptor dec(*cipher, iv);
    return dec.decrypt(in);
}

/** Run the kernel on a machine and return the raw ciphertext bytes. */
std::vector<uint8_t>
kernelEncrypt(const KernelBuild &build, const std::vector<uint8_t> &pt)
{
    isa::Machine m;
    auto image = kernels::toWordImage(build.cipher, pt);
    build.install(m, image);
    m.run(build.program, nullptr, 1ull << 28);
    return kernels::fromWordImage(build.cipher, build.readOutput(m));
}

struct KernelCase
{
    CipherId id;
    KernelVariant variant;
    KernelDirection direction;
};

std::string
caseName(const ::testing::TestParamInfo<KernelCase> &info)
{
    std::string suffix;
    switch (info.param.variant) {
      case KernelVariant::BaselineNoRot: suffix = "norot"; break;
      case KernelVariant::BaselineRot: suffix = "rot"; break;
      case KernelVariant::Optimized: suffix = "opt"; break;
      case KernelVariant::OptimizedGrp: suffix = "grp"; break;
      case KernelVariant::OptimizedFused: suffix = "fused"; break;
    }
    return crypto::cipherInfo(info.param.id).name + "_" + suffix
        + (info.param.direction == KernelDirection::Decrypt ? "_dec"
                                                            : "");
}

std::vector<KernelCase>
allCases()
{
    std::vector<KernelCase> cases;
    for (const auto &info : crypto::cipherCatalog()) {
        for (auto v : {KernelVariant::BaselineNoRot,
                       KernelVariant::BaselineRot,
                       KernelVariant::Optimized,
                       KernelVariant::OptimizedGrp,
                       KernelVariant::OptimizedFused}) {
            cases.push_back({info.id, v, KernelDirection::Encrypt});
            cases.push_back({info.id, v, KernelDirection::Decrypt});
        }
    }
    return cases;
}

class KernelValidation : public ::testing::TestWithParam<KernelCase>
{};

TEST_P(KernelValidation, MatchesReferenceCbc)
{
    const auto [id, variant, direction] = GetParam();
    const auto &info = crypto::cipherInfo(id);
    Xorshift64 rng(0xC0DE + static_cast<int>(id) * 7
                   + static_cast<int>(variant));

    for (int trial = 0; trial < 3; trial++) {
        auto key = rng.bytes(info.keyBits / 8);
        auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
        size_t blocks = 3 + trial * 5;
        auto data = rng.bytes(info.blockBytes * blocks);

        auto build = kernels::buildKernel(id, variant, key, iv,
                                          data.size(), direction);
        auto expect = referenceProcess(id, key, iv, data, direction);
        auto got = kernelEncrypt(build, data);
        ASSERT_EQ(util::toHex(got), util::toHex(expect))
            << build.name << " trial " << trial;
    }
}

// End-to-end: the kernel pair must be mutually inverse. An encrypt
// case checks decrypt(encrypt(pt)) == pt; a decrypt case checks the
// other composition, encrypt(decrypt(ct)) == ct, over arbitrary
// "ciphertext" (CBC and RC4 are bijections on whole blocks).
TEST_P(KernelValidation, DecryptKernelInvertsEncryptKernel)
{
    const auto [id, variant, direction] = GetParam();
    const auto &info = crypto::cipherInfo(id);
    Xorshift64 rng(0xD00D + static_cast<int>(id));
    auto key = rng.bytes(info.keyBits / 8);
    auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
    auto in = rng.bytes(info.blockBytes * 6);

    const KernelDirection other = direction == KernelDirection::Encrypt
        ? KernelDirection::Decrypt
        : KernelDirection::Encrypt;
    auto first = kernels::buildKernel(id, variant, key, iv, in.size(),
                                      direction);
    auto mid = kernelEncrypt(first, in);
    EXPECT_NE(util::toHex(mid), util::toHex(in)) << first.name;
    auto second = kernels::buildKernel(id, variant, key, iv, in.size(),
                                       other);
    auto back = kernelEncrypt(second, mid);
    EXPECT_EQ(util::toHex(back), util::toHex(in)) << first.name;
}

TEST_P(KernelValidation, CategoriesCoverProgram)
{
    const auto [id, variant, direction] = GetParam();
    (void)direction;
    const auto &info = crypto::cipherInfo(id);
    Xorshift64 rng(7);
    auto key = rng.bytes(info.keyBits / 8);
    auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
    auto build = kernels::buildKernel(id, variant, key, iv,
                                      info.blockBytes * 4);
    EXPECT_EQ(build.categories.size(), build.program.size());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelValidation,
                         ::testing::ValuesIn(allCases()), caseName);

// Variant invariants: the optimized kernel must be strictly smaller
// (static instructions per block) than the rotate-less baseline.
TEST(KernelVariants, OptimizedIsSmallerThanBaseline)
{
    Xorshift64 rng(11);
    for (const auto &info : crypto::cipherCatalog()) {
        auto key = rng.bytes(info.keyBits / 8);
        auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
        size_t bytes = info.blockBytes * 4;
        auto norot = kernels::buildKernel(
            info.id, KernelVariant::BaselineNoRot, key, iv, bytes);
        auto opt = kernels::buildKernel(info.id, KernelVariant::Optimized,
                                        key, iv, bytes);
        EXPECT_LT(opt.program.size(), norot.program.size()) << info.name;
    }
}

} // namespace
