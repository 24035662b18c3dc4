/**
 * @file
 * Stored-trace and record-path contract.
 *
 * The suite names date from the two record paths the driver no longer
 * has: a loop-compressed trace format beside the packed one, and a
 * threaded record backend beside the interpreter. What the suites
 * check now:
 *   CompressedTrace   the packed encoding (the only stored format, a
 *                     several-fold compression of the raw DynInst
 *                     stream) on synthetic loop streams: exact
 *                     decode, implicit seq, serialization integrity.
 *   CompressedReplay  recorded kernel traces: what is stored is the
 *                     packed stream, it decodes and re-encodes byte
 *                     for byte, and it cannot change a simulated
 *                     figure.
 *   ExecBackendPolicy the interpreter-only record path: it never runs
 *                     a backend gate, it is deterministic, and
 *                     RecordTiming splits its wall clock.
 * The benchmark-facing stubs in driver/trace.hh (gate counters,
 * compressOutcome, the removed RecordTiming phases) are pinned here to
 * their inert values. The `compressed-replay` ctest label
 * (tests/CMakeLists.txt) runs the first two suites.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "driver/trace.hh"
#include "driver/workload.hh"
#include "isa/packed_trace.hh"
#include "sim/pipeline.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using isa::PackedTrace;
using isa::TraceErrorKind;
using isa::TraceFormatError;
using util::Xorshift64;

isa::DynInst
plainInst(uint64_t seq, uint32_t pc)
{
    isa::DynInst d;
    d.seq = seq;
    d.pc = pc;
    d.nextPc = pc + 1;
    return d;
}

/**
 * Synthetic kernel shape: 3 setup instructions, then @p iters
 * iterations of [load; store; backward branch], then one trailing
 * instruction. The load walks an affine address, or with @p sboxLoad
 * is an SBOX lookup at a data-dependent address; loads carry a result.
 */
std::vector<isa::DynInst>
makeLoopStream(uint64_t iters, bool sboxLoad = false)
{
    std::vector<isa::DynInst> s;
    uint64_t seq = 0;
    for (uint32_t pc = 0; pc < 3; pc++)
        s.push_back(plainInst(seq++, pc));
    for (uint64_t it = 0; it < iters; it++) {
        isa::DynInst ld = plainInst(seq++, 3);
        ld.isLoad = true;
        ld.size = 4;
        ld.dest = 2;
        ld.result = it * 0x9E3779B9u;
        if (sboxLoad) {
            ld.op = isa::Opcode::Sbox;
            ld.tableId = 1;
            ld.addr = 0x1000 + ((it * 2654435761u) & 0xFF) * 4;
        } else {
            ld.addr = 0x1000 + 8 * it;
        }
        s.push_back(ld);

        isa::DynInst st = plainInst(seq++, 4);
        st.isStore = true;
        st.size = 4;
        st.addr = 0x2000;
        s.push_back(st);

        isa::DynInst br = plainInst(seq++, 5);
        br.branch = true;
        br.taken = it + 1 < iters;
        br.nextPc = br.taken ? 3 : 6;
        s.push_back(br);
    }
    s.push_back(plainInst(seq++, 6));
    return s;
}

PackedTrace
pack(const std::vector<isa::DynInst> &stream)
{
    PackedTrace t;
    for (const auto &d : stream)
        t.append(d, /*keepResult=*/true);
    return t;
}

/** Decode @p t and require it to equal @p want field for field. */
void
expectDecodes(const PackedTrace &t, const std::vector<isa::DynInst> &want)
{
    ASSERT_EQ(t.size(), want.size());
    auto r = t.reader();
    for (size_t i = 0; i < want.size(); i++) {
        const isa::DynInst d = r.next();
        const isa::DynInst &w = want[i];
        ASSERT_EQ(d.seq, w.seq) << i;
        ASSERT_EQ(d.pc, w.pc) << i;
        ASSERT_EQ(d.op, w.op) << i;
        ASSERT_EQ(d.dest, w.dest) << i;
        ASSERT_EQ(d.isLoad, w.isLoad) << i;
        ASSERT_EQ(d.isStore, w.isStore) << i;
        ASSERT_EQ(d.addr, w.addr) << i;
        ASSERT_EQ(d.size, w.size) << i;
        ASSERT_EQ(d.branch, w.branch) << i;
        ASSERT_EQ(d.taken, w.taken) << i;
        ASSERT_EQ(d.nextPc, w.nextPc) << i;
        ASSERT_EQ(d.tableId, w.tableId) << i;
        ASSERT_EQ(d.result, w.result) << i;
    }
    EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------------------
// CompressedTrace: the packed encoding on synthetic loop streams

TEST(CompressedTrace, SyntheticLoopCompressesAndExpandsExactly)
{
    const auto stream = makeLoopStream(12);
    const auto packed = pack(stream);
    expectDecodes(packed, stream);
    // 14 fixed bytes per instruction plus side tables, against the
    // in-memory DynInst the stream would otherwise be kept as.
    EXPECT_LT(2 * packed.packedBytes(), stream.size() * sizeof(isa::DynInst));
}

TEST(CompressedTrace, SboxAddressesCompressViaExplicitTable)
{
    // Data-dependent SBOX addresses under 2^32 are kept explicitly, one
    // u32 each, and decode exactly.
    const auto stream = makeLoopStream(12, /*sboxLoad=*/true);
    const auto packed = pack(stream);
    expectDecodes(packed, stream);
}

TEST(CompressedTrace, ExpandedSeqIsGloballyRenumbered)
{
    // seq is not stored: decode (also after a serialization round
    // trip) numbers the stream by position.
    const auto packed = pack(makeLoopStream(16));
    const auto copy = PackedTrace::deserialize(packed.serialize());
    for (const PackedTrace *t : {&packed, &copy}) {
        uint64_t i = 0;
        for (auto r = t->reader(); !r.done(); i++)
            ASSERT_EQ(r.next().seq, i);
        EXPECT_EQ(i, 3 + 3 * 16 + 1u);
    }
}

// ---------------------------------------------------------------------------
// CompressedTrace: serialization of a synthetic SBOX loop stream

std::vector<uint8_t>
loopStreamBytes(uint64_t iters = 16)
{
    return pack(makeLoopStream(iters, /*sboxLoad=*/true)).serialize();
}

TEST(CompressedTrace, SerializeRoundTripsBitExactly)
{
    const auto bytes = loopStreamBytes();
    const auto t = PackedTrace::deserialize(bytes);
    EXPECT_EQ(t.serialize(), bytes);
    expectDecodes(t, makeLoopStream(16, true));
}

TEST(CompressedTrace, RejectsBadMagic)
{
    auto bytes = loopStreamBytes();
    bytes[0] = 'X';
    try {
        PackedTrace::deserialize(bytes);
        FAIL() << "bad magic accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::BadMagic);
    }
}

TEST(CompressedTrace, RejectsBadVersion)
{
    auto bytes = loopStreamBytes();
    bytes[4] = 0xFF;
    try {
        PackedTrace::deserialize(bytes);
        FAIL() << "bad version accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::BadVersion);
    }
}

TEST(CompressedTrace, RejectsTruncation)
{
    const auto bytes = loopStreamBytes();
    for (size_t keep : {size_t{0}, size_t{3}, size_t{55}, size_t{56},
                        bytes.size() / 2, bytes.size() - 1}) {
        std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
        EXPECT_THROW(PackedTrace::deserialize(cut), TraceFormatError)
            << "accepted " << keep << " of " << bytes.size() << " bytes";
    }
}

TEST(CompressedTrace, RejectsPayloadCorruption)
{
    auto bytes = loopStreamBytes();
    bytes[bytes.size() - 10] ^= 0x40; // inside the side tables
    try {
        PackedTrace::deserialize(bytes);
        FAIL() << "corrupted payload accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::BadChecksum);
    }
}

TEST(CompressedTrace, FuzzedCorruptionNeverCrashesReader)
{
    // Every random corruption of a stream with all side tables in use
    // is rejected with a typed error, never accepted and never UB.
    const auto bytes = loopStreamBytes(32);
    Xorshift64 rng(0xC0DEC);
    for (int iter = 0; iter < 400; iter++) {
        auto corrupt = bytes;
        const int flips = 1 + static_cast<int>(rng.next() % 4);
        for (int f = 0; f < flips; f++)
            corrupt[rng.next() % corrupt.size()] ^=
                static_cast<uint8_t>(1u << (rng.next() % 8));
        if (corrupt == bytes)
            continue;
        try {
            auto t = PackedTrace::deserialize(corrupt);
            for (auto r = t.reader(); !r.done();)
                r.next();
            FAIL() << "corrupted stream accepted at iter " << iter;
        } catch (const TraceFormatError &) {
            // expected: typed rejection, no UB
        }
    }
}

// ---------------------------------------------------------------------------
// CompressedReplay: recorded kernel traces

constexpr auto rijndael = crypto::CipherId::Rijndael;
constexpr auto optimized = kernels::KernelVariant::Optimized;
constexpr auto encrypt = kernels::KernelDirection::Encrypt;

TEST(CompressedReplay, OffModeNeverAttempts)
{
    auto trace = driver::recordKernelTrace(rijndael, optimized, 512);
    EXPECT_EQ(trace.compressOutcome(),
              driver::CompressOutcome::NotAttempted);
    EXPECT_EQ(trace.storedBytes(), trace.packedStream().packedBytes());
}

TEST(CompressedReplay, BlockCipherCompressesManyFold)
{
    // A full Rijndael session stored packed, against the raw DynInst
    // stream it replays.
    auto trace = driver::recordKernelTrace(rijndael, optimized);
    const size_t raw = trace.instructions() * sizeof(isa::DynInst);
    EXPECT_GE(raw, 3 * trace.storedBytes())
        << "stored " << trace.storedBytes() << " vs raw " << raw;
}

TEST(CompressedReplay, CompressionCannotChangeSimulatedFigures)
{
    // The stored stream, serialized, reloaded and replayed into a real
    // timing model, gives exactly the recorded trace's stats.
    auto trace = driver::recordKernelTrace(rijndael, optimized, 1024);
    const auto copy =
        PackedTrace::deserialize(trace.packedStream().serialize());

    const auto cfg = sim::MachineConfig::fourWidePlus();
    const auto a = trace.replay(cfg);
    sim::OooScheduler sched(cfg);
    for (auto r = copy.reader(); !r.done();) {
        isa::DynInst d = r.next();
        sched.emit(d);
    }
    const auto b = sched.finish();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.sboxAccesses, b.sboxAccesses);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
}

TEST(CompressedReplay, EveryCatalogKernelExpandsByteIdentically)
{
    // For every (cipher, variant), decoding the stored stream and
    // re-encoding it reproduces the stored serialization byte for byte.
    const kernels::KernelVariant variants[] = {
        kernels::KernelVariant::BaselineNoRot,
        kernels::KernelVariant::BaselineRot,
        kernels::KernelVariant::Optimized,
        kernels::KernelVariant::OptimizedGrp,
        kernels::KernelVariant::OptimizedFused,
    };
    for (auto id : driver::allCiphers()) {
        for (auto variant : variants) {
            SCOPED_TRACE(crypto::cipherInfo(id).name + "/"
                         + kernels::variantName(variant));
            auto trace = driver::recordKernelTrace(id, variant, 512);
            const PackedTrace &packed = trace.packedStream();
            PackedTrace reencoded;
            reencoded.reserve(packed.size());
            for (auto r = packed.reader(); !r.done();)
                reencoded.append(r.next(), /*keepResult=*/false);
            EXPECT_EQ(reencoded.serialize(), packed.serialize());
        }
    }
}

TEST(CompressedReplay, RecordTimingSplitsPhases)
{
    driver::RecordTiming timing;
    driver::recordKernelTrace(rijndael, optimized, 512, encrypt, &timing);
    EXPECT_GT(timing.recordSeconds, 0.0);
    EXPECT_GE(timing.verifySeconds, 0.0);
    EXPECT_EQ(timing.compressSeconds, 0.0); // stub phase
}

// ---------------------------------------------------------------------------
// ExecBackendPolicy: the interpreter-only record path

constexpr auto blowfish = crypto::CipherId::Blowfish;
constexpr size_t bytes = 512;

TEST(ExecBackendPolicy, InterpreterSelectionNeverGates)
{
    driver::resetExecBackendGate();
    const uint64_t runs0 = driver::functionalRuns();
    driver::recordKernelTrace(blowfish, optimized, bytes, encrypt);
    driver::recordKernelTrace(blowfish, optimized, bytes, encrypt);
    EXPECT_EQ(driver::backendGateChecks(), 0u);
    EXPECT_EQ(driver::backendGateFallbacks(), 0u);
    // One interpreter run per recording, nothing run beside it.
    EXPECT_EQ(driver::functionalRuns(), runs0 + 2);
}

TEST(ExecBackendPolicy, BackendsProduceByteIdenticalTraces)
{
    // Recording is deterministic: every recording of a kernel stores
    // the same packed bytes, which is what lets a sweep record once.
    const auto want = driver::recordKernelTrace(blowfish, optimized, bytes,
                                                encrypt)
                          .packedStream()
                          .serialize();
    for (int i = 0; i < 2; i++)
        EXPECT_EQ(driver::recordKernelTrace(blowfish, optimized, bytes,
                                            encrypt)
                      .packedStream()
                      .serialize(),
                  want);
}

/**
 * RecordTiming's fields are disjoint phases of the call, so their sum
 * can never exceed its wall clock; setup, the run and the oracle each
 * take measurable time, and the removed phases read zero.
 */
TEST(ExecBackendPolicy, TimingPhasesAreDisjointSplitsOfWallClock)
{
    driver::RecordTiming t;
    const auto t0 = std::chrono::steady_clock::now();
    driver::recordKernelTrace(blowfish, optimized, bytes, encrypt, &t);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_GT(t.setupSeconds, 0.0);
    EXPECT_GT(t.recordSeconds, 0.0);
    EXPECT_GT(t.verifySeconds, 0.0);
    EXPECT_EQ(t.decodeSeconds, 0.0);
    EXPECT_EQ(t.gateSeconds, 0.0);
    EXPECT_EQ(t.compressSeconds, 0.0);
    EXPECT_LE(t.setupSeconds + t.recordSeconds + t.verifySeconds, wall);
}

} // namespace
