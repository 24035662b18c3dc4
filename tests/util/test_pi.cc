/**
 * @file
 * The committed pi table and its verifier: Machin's formula
 * (pi_machin.hh) must reproduce the table word for word, and both must
 * start with the leading Blowfish constants.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "pi_machin.hh"
#include "util/pi.hh"

namespace
{

using cryptarch::testutil::machinPiFractionWords;
using cryptarch::util::pi_table_words;
using cryptarch::util::piFractionWords;

// The leading fractional hex digits of pi are universally documented as
// the first Blowfish P-array entries.
const uint32_t blowfish_p_head[8] = {0x243F6A88, 0x85A308D3, 0x13198A2E,
                                     0x03707344, 0xA4093822, 0x299F31D0,
                                     0x082EFA98, 0xEC4E6C89};

TEST(Pi, FirstWordsMatchKnownDigits)
{
    const auto table = piFractionWords(8);
    const auto machin = machinPiFractionWords(8);
    ASSERT_EQ(table.size(), 8u);
    ASSERT_EQ(machin.size(), 8u);
    for (size_t i = 0; i < 8; i++) {
        EXPECT_EQ(table[i], blowfish_p_head[i]) << "table word " << i;
        EXPECT_EQ(machin[i], blowfish_p_head[i]) << "Machin word " << i;
    }
}

// A longer Machin run must agree with a shorter one on the shared
// prefix (catches precision/guard-word bugs in the verifier).
TEST(Pi, PrefixStability)
{
    auto small = machinPiFractionWords(32);
    auto large = machinPiFractionWords(pi_table_words);
    for (size_t i = 0; i < small.size(); i++)
        EXPECT_EQ(small[i], large[i]) << "word " << i;
}

// The table holds exactly what Blowfish consumes; shorter requests are
// its prefix, and the last word is the last S-box entry S4[255].
TEST(Pi, DeterministicAndSized)
{
    auto a = piFractionWords(pi_table_words);
    ASSERT_EQ(a.size(), 1042u);
    EXPECT_EQ(a.back(), 0x3AC372E6u);
    auto b = piFractionWords(100);
    EXPECT_TRUE(std::equal(b.begin(), b.end(), a.begin()));
    EXPECT_TRUE(piFractionWords(0).empty());
}

TEST(Pi, TableMatchesMachinGenerator)
{
    const auto machin = machinPiFractionWords(pi_table_words);
    const auto table = piFractionWords(pi_table_words);
    ASSERT_EQ(machin.size(), table.size());
    for (size_t i = 0; i < table.size(); i++)
        ASSERT_EQ(table[i], machin[i]) << "word " << i;
}

TEST(Pi, RejectsMoreWordsThanTheTable)
{
    EXPECT_THROW(piFractionWords(pi_table_words + 1), std::invalid_argument);
}

} // namespace
