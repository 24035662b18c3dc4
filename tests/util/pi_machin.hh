/**
 * @file
 * The verifier of the committed pi table (src/util/pi.cc): Machin's
 * formula pi = 16*atan(1/5) - 4*atan(1/239), evaluated in exact
 * fixed-point arithmetic. O(nwords^2); the 1042 words Blowfish needs
 * take about 0.1 s.
 */

#ifndef CRYPTARCH_TESTS_UTIL_PI_MACHIN_HH
#define CRYPTARCH_TESTS_UTIL_PI_MACHIN_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cryptarch::testutil
{

/**
 * Unsigned fixed-point number: one integer word followed by @c frac
 * fraction words, most significant first. All arithmetic is exact; the
 * caller allocates guard words to absorb truncation error.
 */
class FixedPoint
{
  public:
    explicit FixedPoint(size_t frac_words) : words(frac_words + 1, 0) {}

    /** Set to the reciprocal of a small integer: this = 1 / d. */
    void
    setReciprocal(uint32_t d)
    {
        for (auto &w : words)
            w = 0;
        words[0] = 1;
        divideBy(d);
    }

    /** In-place divide by a small integer (long division, MSW first). */
    void
    divideBy(uint32_t d)
    {
        uint64_t rem = 0;
        // Skip leading zero words: quotient words there stay zero and the
        // remainder stays zero, so only start at the first nonzero word.
        size_t start = firstNonzero();
        for (size_t i = start; i < words.size(); i++) {
            uint64_t cur = (rem << 32) | words[i];
            words[i] = static_cast<uint32_t>(cur / d);
            rem = cur % d;
        }
    }

    /** this += other (same width). */
    void
    add(const FixedPoint &other)
    {
        assert(words.size() == other.words.size());
        uint64_t carry = 0;
        for (size_t i = words.size(); i-- > 0;) {
            uint64_t sum = static_cast<uint64_t>(words[i])
                + other.words[i] + carry;
            words[i] = static_cast<uint32_t>(sum);
            carry = sum >> 32;
        }
    }

    /** this -= other (same width); caller guarantees this >= other. */
    void
    sub(const FixedPoint &other)
    {
        assert(words.size() == other.words.size());
        int64_t borrow = 0;
        for (size_t i = words.size(); i-- > 0;) {
            int64_t diff = static_cast<int64_t>(words[i])
                - static_cast<int64_t>(other.words[i]) - borrow;
            borrow = diff < 0 ? 1 : 0;
            words[i] = static_cast<uint32_t>(diff);
        }
        assert(borrow == 0);
    }

    /** this *= m for a small integer m (used for the 16x / 4x scaling). */
    void
    multiplyBy(uint32_t m)
    {
        uint64_t carry = 0;
        for (size_t i = words.size(); i-- > 0;) {
            uint64_t prod = static_cast<uint64_t>(words[i]) * m + carry;
            words[i] = static_cast<uint32_t>(prod);
            carry = prod >> 32;
        }
        assert(carry == 0);
    }

    bool
    isZero() const
    {
        return firstNonzero() == words.size();
    }

    /** Fraction words (after the integer word). */
    std::vector<uint32_t>
    fraction(size_t n) const
    {
        assert(n + 1 <= words.size());
        return {words.begin() + 1, words.begin() + 1 + n};
    }

  private:
    size_t
    firstNonzero() const
    {
        size_t i = 0;
        while (i < words.size() && words[i] == 0)
            i++;
        return i;
    }

    std::vector<uint32_t> words;
};

/**
 * Fixed-point arctangent of a reciprocal: atan(1/q) via the Gregory
 * series 1/q - 1/(3 q^3) + 1/(5 q^5) - ...
 */
inline FixedPoint
atanReciprocal(uint32_t q, size_t frac_words)
{
    FixedPoint term(frac_words);
    FixedPoint sum(frac_words);
    FixedPoint scratch(frac_words);

    term.setReciprocal(q);
    sum = term;
    const uint32_t q2 = q * q;
    for (uint32_t n = 3; !term.isZero(); n += 2) {
        term.divideBy(q2);
        scratch = term;
        scratch.divideBy(n);
        if ((n & 2) != 0) // n = 3, 7, 11, ... : subtract
            sum.sub(scratch);
        else // n = 5, 9, 13, ... : add
            sum.add(scratch);
    }
    return sum;
}

/**
 * The first @p nwords 32-bit words of the fractional part of pi, most
 * significant word first, computed from Machin's formula.
 */
inline std::vector<uint32_t>
machinPiFractionWords(size_t nwords)
{
    // Guard words absorb truncation error from the series evaluation.
    const size_t frac = nwords + 3;

    FixedPoint a5 = atanReciprocal(5, frac);
    a5.multiplyBy(16);
    FixedPoint a239 = atanReciprocal(239, frac);
    a239.multiplyBy(4);
    a5.sub(a239);

    return a5.fraction(nwords);
}

} // namespace cryptarch::testutil

#endif // CRYPTARCH_TESTS_UTIL_PI_MACHIN_HH
