/**
 * @file
 * Packed-trace stream integrity: serialize/deserialize round-trips
 * bit-exactly, and every malformed stream — truncated, bad magic, bad
 * version, corrupted payload, inconsistent tables — is rejected with a
 * typed TraceFormatError. The fuzz case flips random bytes and bits in
 * real kernel trace streams and asserts the reader never crashes or
 * accepts silently (the ASan/UBSan CI job runs these same cases).
 * Streams edited behind a recomputed checksum reach the semantic
 * checks: table entries, and the pc walk over the columns.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "driver/trace.hh"
#include "isa/packed_trace.hh"
#include "util/checksum.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using cryptarch::isa::PackedTrace;
using cryptarch::isa::TraceErrorKind;
using cryptarch::isa::TraceFormatError;
using cryptarch::util::Xorshift64;

/** A real kernel trace stream to corrupt. */
std::vector<uint8_t>
kernelStream(size_t bytes = 512)
{
    auto trace = driver::recordKernelTrace(
        crypto::CipherId::RC4, kernels::KernelVariant::Optimized, bytes);
    return trace.packedStream().serialize();
}

/** Decode every instruction of @p t (drives the Reader bounds). */
size_t
drain(const PackedTrace &t)
{
    size_t n = 0;
    for (auto r = t.reader(); !r.done(); r.next())
        n++;
    return n;
}

TEST(TraceIntegrity, SerializeRoundTripsBitExactly)
{
    auto bytes = kernelStream();
    auto t = PackedTrace::deserialize(bytes);
    EXPECT_GT(t.size(), 0u);
    EXPECT_EQ(drain(t), t.size());
    // Round-trip: re-serializing the parsed trace reproduces the
    // stream byte for byte.
    EXPECT_EQ(t.serialize(), bytes);
}

TEST(TraceIntegrity, ReplayFromDeserializedTraceMatchesOriginal)
{
    auto trace = driver::recordKernelTrace(
        crypto::CipherId::Rijndael, kernels::KernelVariant::Optimized,
        512);
    const PackedTrace packed = trace.packedStream();
    auto copy = PackedTrace::deserialize(packed.serialize());
    auto ra = packed.reader();
    auto rb = copy.reader();
    while (!ra.done() && !rb.done()) {
        auto a = ra.next();
        auto b = rb.next();
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.op, b.op);
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.nextPc, b.nextPc);
    }
    EXPECT_TRUE(ra.done());
    EXPECT_TRUE(rb.done());
}

TEST(TraceIntegrity, EmptyTraceRoundTrips)
{
    PackedTrace empty;
    auto bytes = empty.serialize();
    auto t = PackedTrace::deserialize(bytes);
    EXPECT_EQ(t.size(), 0u);
}

TEST(TraceIntegrity, RejectsBadMagic)
{
    auto bytes = kernelStream();
    bytes[0] = 'X';
    try {
        PackedTrace::deserialize(bytes);
        FAIL() << "bad magic accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::BadMagic);
    }
}

TEST(TraceIntegrity, RejectsBadVersion)
{
    auto bytes = kernelStream();
    bytes[4] = 0xFF;
    try {
        PackedTrace::deserialize(bytes);
        FAIL() << "bad version accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::BadVersion);
    }
}

TEST(TraceIntegrity, RejectsTruncation)
{
    auto bytes = kernelStream();
    // Every truncation length, from empty to one-byte-short, rejects
    // with a typed error (coarse steps keep the loop fast, the
    // boundary cases are explicit).
    for (size_t keep : {size_t{0}, size_t{3}, size_t{47}, size_t{48},
                        bytes.size() / 2, bytes.size() - 1}) {
        std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
        EXPECT_THROW(PackedTrace::deserialize(cut), TraceFormatError)
            << "accepted " << keep << " of " << bytes.size() << " bytes";
    }
}

TEST(TraceIntegrity, RejectsPayloadCorruption)
{
    auto bytes = kernelStream();
    auto corrupt = bytes;
    corrupt[bytes.size() / 2] ^= 0x40;
    try {
        PackedTrace::deserialize(corrupt);
        FAIL() << "corrupted payload accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::BadChecksum);
    }
}

TEST(TraceIntegrity, RejectsChecksumFieldCorruption)
{
    auto bytes = kernelStream();
    bytes[40] ^= 0x01; // the stored checksum itself
    EXPECT_THROW(PackedTrace::deserialize(bytes), TraceFormatError);
}

// Format v3 layout used below: a 48-byte header (instruction count at
// 8, table size at 16, start pc at 20, address count at 24, branch-bit
// count at 32, checksum at 40), then 18-byte table entries (opcode at
// +0, dest at +2, flags at +9, fall-through at +10), then the columns.
constexpr size_t header_bytes = 48;
constexpr size_t entry_bytes = 18;

uint32_t
le32(const std::vector<uint8_t> &b, size_t at)
{
    return b[at] | b[at + 1] << 8 | b[at + 2] << 16
        | static_cast<uint32_t>(b[at + 3]) << 24;
}

void
setLE(std::vector<uint8_t> &b, size_t at, uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; i++)
        b[at + i] = static_cast<uint8_t>(v >> (8 * i));
}

/** @p b with its checksum recomputed, as a buggy writer would emit. */
std::vector<uint8_t>
resealed(std::vector<uint8_t> b)
{
    const uint64_t sum = util::fnv1a64(
        b.data() + header_bytes, b.size() - header_bytes,
        util::fnv1a64(b.data(), 40));
    setLE(b, 40, sum, 8);
    return b;
}

TraceErrorKind
rejectionOf(const std::vector<uint8_t> &bytes)
{
    try {
        drain(PackedTrace::deserialize(bytes));
    } catch (const TraceFormatError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "stream accepted";
    return TraceErrorKind::BadMagic;
}

TEST(TraceIntegrity, RejectsWellSealedButMalformedStreams)
{
    const auto bytes = kernelStream();
    ASSERT_EQ(PackedTrace::deserialize(resealed(bytes)).serialize(), bytes);
    const uint32_t nTable = le32(bytes, 16);
    const size_t entry0 = header_bytes + le32(bytes, 20) * entry_bytes;

    auto edit = [&](size_t at, uint64_t v, unsigned n) {
        auto b = bytes;
        setLE(b, at, v, n);
        return resealed(b);
    };
    // Table entries: opcode, register and successor ranges.
    EXPECT_EQ(rejectionOf(edit(entry0, 0xFF, 1)),
              TraceErrorKind::Inconsistent);
    EXPECT_EQ(rejectionOf(edit(entry0 + 2, isa::num_regs, 1)),
              TraceErrorKind::Inconsistent);
    EXPECT_EQ(rejectionOf(edit(entry0 + 10, nTable + 5, 4)),
              TraceErrorKind::Inconsistent);
    // The walk: a start pc with no entry, and columns that run out or
    // are left over.
    EXPECT_EQ(rejectionOf(edit(20, nTable + 1, 4)),
              TraceErrorKind::Inconsistent);
    const uint32_t n = le32(bytes, 8); // a 512-byte RC4 session
    EXPECT_EQ(rejectionOf(edit(8, n + 1000, 8)), TraceErrorKind::Overrun);
    EXPECT_EQ(rejectionOf(edit(8, n - 1000, 8)),
              TraceErrorKind::Inconsistent);
}

TEST(TraceIntegrity, FuzzedCorruptionNeverCrashesReader)
{
    // Randomized single- and multi-bit corruption over the whole
    // stream: the reader must reject (typed error) or, never, crash.
    // Accepting is impossible — the checksum covers every payload byte
    // and each header field is semantically checked.
    auto bytes = kernelStream(256);
    Xorshift64 rng(0xF022);
    for (int iter = 0; iter < 500; iter++) {
        auto corrupt = bytes;
        const int flips = 1 + static_cast<int>(rng.next() % 4);
        for (int f = 0; f < flips; f++)
            corrupt[rng.next() % corrupt.size()] ^=
                static_cast<uint8_t>(1u << (rng.next() % 8));
        if (corrupt == bytes)
            continue; // even number of identical flips canceled out
        try {
            auto t = PackedTrace::deserialize(corrupt);
            drain(t);
            FAIL() << "corrupted stream accepted at iter " << iter;
        } catch (const TraceFormatError &) {
            // expected: typed rejection, no UB
        }
    }
}

TEST(TraceIntegrity, FuzzedTruncationNeverCrashesReader)
{
    auto bytes = kernelStream(256);
    Xorshift64 rng(0x7A11);
    for (int iter = 0; iter < 200; iter++) {
        const size_t keep = rng.next() % bytes.size();
        std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
        EXPECT_THROW(PackedTrace::deserialize(cut), TraceFormatError);
    }
}

} // namespace
