/**
 * @file
 * Stored-trace and record-path contract.
 *
 * The suite names date from the two record paths the driver no longer
 * has: a loop-compressed trace format beside the packed one, and a
 * threaded record backend beside the interpreter. What the suites
 * check now:
 *   CompressedTrace   the packed encoding (the only stored format, a
 *                     many-fold compression of the raw DynInst stream)
 *                     on random walks over random static programs:
 *                     exact decode, implicit seq, serialization
 *                     integrity.
 *   AppendContract    each way a stream can break the program shape
 *                     the encoding relies on raises a typed error.
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
#include "random_program.hh"
#include "sim/pipeline.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using isa::PackedTrace;
using isa::TraceErrorKind;
using isa::TraceFormatError;
using util::Xorshift64;

/**
 * Synthetic kernel shape: a random walk of @p n instructions over a
 * random 40-instruction static program (see random_program.hh).
 */
std::vector<isa::DynInst>
makeWalk(size_t n, uint64_t seed = 0x5EED)
{
    Xorshift64 rng(seed);
    const auto program = testprog::makeRandomProgram(rng, 40);
    return testprog::randomWalk(program, rng, n);
}

PackedTrace
pack(const std::vector<isa::DynInst> &stream)
{
    PackedTrace t;
    for (const auto &d : stream)
        t.append(d);
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
        ASSERT_EQ(d.cls, w.cls) << i;
        ASSERT_EQ(d.numSrcs, w.numSrcs) << i;
        ASSERT_EQ(d.srcs, w.srcs) << i;
        ASSERT_EQ(d.dest, w.dest) << i;
        ASSERT_EQ(d.isLoad, w.isLoad) << i;
        ASSERT_EQ(d.isStore, w.isStore) << i;
        ASSERT_EQ(d.addr, w.addr) << i;
        ASSERT_EQ(d.size, w.size) << i;
        ASSERT_EQ(d.addrSrc, w.addrSrc) << i;
        ASSERT_EQ(d.branch, w.branch) << i;
        ASSERT_EQ(d.taken, w.taken) << i;
        ASSERT_EQ(d.nextPc, w.nextPc) << i;
        ASSERT_EQ(d.tableId, w.tableId) << i;
        ASSERT_EQ(d.aliased, w.aliased) << i;
        ASSERT_EQ(d.result, 0u) << i; // the encoding drops results
    }
    EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------------------
// CompressedTrace: the packed encoding on synthetic program walks

TEST(CompressedTrace, SyntheticLoopCompressesAndExpandsExactly)
{
    const auto stream = makeWalk(2000);
    const auto packed = pack(stream);
    expectDecodes(packed, stream);
    // A 40-entry static table plus addresses and branch bits, against
    // the in-memory DynInst the stream would otherwise be kept as.
    EXPECT_LT(4 * packed.packedBytes(), stream.size() * sizeof(isa::DynInst));
}

TEST(CompressedTrace, SboxAddressesCompressViaExplicitTable)
{
    // Data-dependent SBOX addresses are kept explicitly, one u32 each,
    // and decode exactly.
    const auto stream = makeWalk(2000, 0x5B0C);
    size_t sboxes = 0;
    for (const auto &d : stream)
        sboxes += d.op == isa::Opcode::Sbox && d.addr != 0;
    ASSERT_GT(sboxes, 0u) << "the walk never reached an SBOX lookup";
    const auto packed = pack(stream);
    expectDecodes(packed, stream);
}

TEST(CompressedTrace, ExpandedSeqIsGloballyRenumbered)
{
    // seq is not stored: decode (also after a serialization round
    // trip) numbers the stream by position.
    const auto packed = pack(makeWalk(700));
    const auto copy = PackedTrace::deserialize(packed.serialize());
    for (const PackedTrace *t : {&packed, &copy}) {
        uint64_t i = 0;
        for (auto r = t->reader(); !r.done(); i++)
            ASSERT_EQ(r.next().seq, i);
        EXPECT_EQ(i, 700u);
    }
}

// ---------------------------------------------------------------------------
// CompressedTrace: serialization of a synthetic program walk

std::vector<uint8_t>
walkStreamBytes(size_t n = 700)
{
    return pack(makeWalk(n)).serialize();
}

TEST(CompressedTrace, SerializeRoundTripsBitExactly)
{
    const auto bytes = walkStreamBytes();
    const auto t = PackedTrace::deserialize(bytes);
    EXPECT_EQ(t.serialize(), bytes);
    expectDecodes(t, makeWalk(700));
}

TEST(CompressedTrace, RejectsBadMagic)
{
    auto bytes = walkStreamBytes();
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
    auto bytes = walkStreamBytes();
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
    const auto bytes = walkStreamBytes();
    for (size_t keep : {size_t{0}, size_t{3}, size_t{47}, size_t{48},
                        bytes.size() / 2, bytes.size() - 1}) {
        std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
        EXPECT_THROW(PackedTrace::deserialize(cut), TraceFormatError)
            << "accepted " << keep << " of " << bytes.size() << " bytes";
    }
}

TEST(CompressedTrace, RejectsPayloadCorruption)
{
    auto bytes = walkStreamBytes();
    bytes[bytes.size() - 10] ^= 0x40; // inside the address column
    try {
        PackedTrace::deserialize(bytes);
        FAIL() << "corrupted payload accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::BadChecksum);
    }
}

TEST(CompressedTrace, FuzzedCorruptionNeverCrashesReader)
{
    // Every random corruption of a stream with every column in use is
    // rejected with a typed error, never accepted and never UB.
    const auto bytes = walkStreamBytes(1400);
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
// AppendContract: streams no program run produces are rejected

/**
 * Append @p stream, then @p bad, which must be rejected as
 * Inconsistent with its index in the message and the trace unchanged.
 */
void
expectRejected(const std::vector<isa::DynInst> &stream,
               const isa::DynInst &bad)
{
    PackedTrace t = pack(stream);
    const auto before = t.serialize();
    try {
        t.append(bad);
        FAIL() << "append accepted the instruction";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::Inconsistent);
        EXPECT_NE(std::string(e.what()).find(
                      "instruction " + std::to_string(stream.size())),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(t.serialize(), before);
}

/**
 * The last index of @p stream whose pc (and, with @p sameOutcome, whose
 * branch outcome) occurred earlier, and that satisfies @p pred.
 */
template <class Pred>
size_t
lastRevisit(const std::vector<isa::DynInst> &stream, bool sameOutcome,
            Pred pred)
{
    for (size_t k = stream.size(); k-- > 0;) {
        if (!pred(stream[k]))
            continue;
        for (size_t j = 0; j < k; j++)
            if (stream[j].pc == stream[k].pc
                && (!sameOutcome || stream[j].taken == stream[k].taken))
                return k;
    }
    ADD_FAILURE() << "no revisit in the walk";
    return 0;
}

std::vector<isa::DynInst>
prefix(const std::vector<isa::DynInst> &stream, size_t k)
{
    return {stream.begin(), stream.begin() + k};
}

TEST(AppendContract, RejectsPcJump)
{
    const auto stream = makeWalk(500);
    isa::DynInst bad = stream.back();
    bad.pc ^= 1; // not the previous instruction's nextPc
    expectRejected(prefix(stream, stream.size() - 1), bad);
}

TEST(AppendContract, RejectsChangedStaticField)
{
    // An instruction at a pc visited before, with one static field
    // changed at a time.
    const auto stream = makeWalk(500);
    const size_t k = lastRevisit(stream, false, [](const auto &) {
        return true;
    });
    for (int field = 0; field < 5; field++) {
        isa::DynInst bad = stream[k];
        switch (field) {
          case 0: bad.dest ^= 1; break;
          case 1: bad.srcs[2] ^= 1; break;
          case 2: bad.tableId ^= 1; break;
          case 3: bad.aliased = !bad.aliased; break;
          default: bad.size ^= 16; break;
        }
        SCOPED_TRACE(field);
        expectRejected(prefix(stream, k), bad);
    }
}

TEST(AppendContract, RejectsWideAddress)
{
    std::vector<isa::DynInst> stream;
    isa::DynInst ld;
    ld.op = isa::Opcode::Ldq;
    ld.cls = isa::OpClass::Load;
    ld.isLoad = true;
    ld.size = 8;
    ld.addr = 1ull << 32;
    ld.nextPc = 1;
    expectRejected(stream, ld);
}

TEST(AppendContract, RejectsAddressOnNonMemoryInstruction)
{
    const auto stream = makeWalk(500);
    size_t k = stream.size() - 1;
    while (stream[k].isLoad || stream[k].isStore)
        k--;
    isa::DynInst bad = stream[k];
    bad.addr = 0x40;
    expectRejected(prefix(stream, k), bad);
}

TEST(AppendContract, RejectsSequenceGap)
{
    const auto stream = makeWalk(500);
    isa::DynInst bad = stream.back();
    bad.seq++;
    expectRejected(prefix(stream, stream.size() - 1), bad);
}

TEST(AppendContract, RejectsChangedSuccessor)
{
    // The same pc and outcome always lead to the same successor.
    const auto stream = makeWalk(500);
    const size_t k = lastRevisit(stream, true, [](const auto &) {
        return true;
    });
    isa::DynInst bad = stream[k];
    bad.nextPc += 1;
    expectRejected(prefix(stream, k), bad);
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
            for (auto r = packed.reader(); !r.done();)
                reencoded.append(r.next());
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
