/**
 * @file
 * Packed-trace stream integrity: serialize/deserialize round-trips
 * bit-exactly, and every malformed stream — truncated, bad magic, bad
 * version, corrupted payload, inconsistent tables — is rejected with a
 * typed TraceFormatError. The fuzz case flips random bytes and bits in
 * real kernel trace streams and asserts the reader never crashes or
 * accepts silently (the ASan/UBSan CI job runs these same cases).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "driver/trace.hh"
#include "isa/packed_trace.hh"
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
    for (size_t keep : {size_t{0}, size_t{3}, size_t{55}, size_t{56},
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
    bytes[48] ^= 0x01; // the stored checksum itself
    EXPECT_THROW(PackedTrace::deserialize(bytes), TraceFormatError);
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
