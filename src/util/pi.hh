/**
 * @file
 * Hexadecimal digits of pi.
 *
 * Blowfish initializes its P-array and four S-boxes with the first 8336
 * hexadecimal digits of the fractional part of pi: 18 + 4 * 256 = 1042
 * 32-bit words. They are committed as a table (util/pi.cc), so no
 * cipher setup or kernel build computes them. The table's verifier is a
 * fixed-point evaluation of Machin's formula
 *
 *     pi = 16*atan(1/5) - 4*atan(1/239)
 *
 * in tests/util/pi_machin.hh: the unit tests require its output to
 * equal the table word for word and to start with the well-known
 * leading Blowfish constants (0x243F6A88, 0x85A308D3, ...), and the
 * published Blowfish known-answer vectors validate the whole stream.
 */

#ifndef CRYPTARCH_UTIL_PI_HH
#define CRYPTARCH_UTIL_PI_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cryptarch::util
{

/** Words in the committed table: exactly what Blowfish consumes. */
constexpr size_t pi_table_words = 18 + 4 * 256;

/**
 * The first @p nwords 32-bit words of the fractional part of pi, most
 * significant word first. Word 0 is 0x243F6A88. Throws
 * std::invalid_argument when @p nwords exceeds pi_table_words.
 */
std::vector<uint32_t> piFractionWords(size_t nwords);

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_PI_HH
