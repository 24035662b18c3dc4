/**
 * @file
 * Round-trip fidelity of the packed trace encoding:
 * decode(encode(stream)) must equal the original stream field by
 * field, results aside (the encoding drops them), both for real kernel
 * traces captured from the functional Machine and for adversarial
 * random walks over random static programs, which reach every
 * successor rule and access size. Across the whole kernel catalog, the
 * driver's recorded trace must replay the exact interpreter stream,
 * survive a serialize/deserialize round trip byte for byte, and stay
 * at or below 3 B/inst (BackendParity); so must the Blowfish key-setup
 * kernel.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "driver/trace.hh"
#include "driver/workload.hh"
#include "isa/machine.hh"
#include "isa/packed_trace.hh"
#include "isa/program.hh"
#include "kernels/kernel.hh"
#include "random_program.hh"
#include "util/xorshift.hh"
#include "verify/oracle.hh"

namespace
{

using namespace cryptarch;
using driver::PackedTrace;

void
expectInstEqual(const isa::DynInst &a, const isa::DynInst &b, size_t i)
{
    EXPECT_EQ(a.seq, b.seq) << "inst " << i;
    EXPECT_EQ(a.pc, b.pc) << "inst " << i;
    EXPECT_EQ(a.op, b.op) << "inst " << i;
    EXPECT_EQ(a.cls, b.cls) << "inst " << i;
    EXPECT_EQ(a.numSrcs, b.numSrcs) << "inst " << i;
    EXPECT_EQ(a.srcs, b.srcs) << "inst " << i;
    EXPECT_EQ(a.dest, b.dest) << "inst " << i;
    EXPECT_EQ(a.isLoad, b.isLoad) << "inst " << i;
    EXPECT_EQ(a.isStore, b.isStore) << "inst " << i;
    EXPECT_EQ(a.addr, b.addr) << "inst " << i;
    EXPECT_EQ(a.size, b.size) << "inst " << i;
    EXPECT_EQ(a.addrSrc, b.addrSrc) << "inst " << i;
    EXPECT_EQ(a.branch, b.branch) << "inst " << i;
    EXPECT_EQ(a.taken, b.taken) << "inst " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "inst " << i;
    EXPECT_EQ(a.tableId, b.tableId) << "inst " << i;
    EXPECT_EQ(a.aliased, b.aliased) << "inst " << i;
    EXPECT_EQ(a.result, b.result) << "inst " << i;
}

/** @p d as the packed encoding decodes it: result dropped. */
isa::DynInst
withoutResult(isa::DynInst d)
{
    d.result = 0;
    return d;
}

/** TraceSink capturing the raw DynInst stream. */
struct VectorSink : isa::TraceSink
{
    std::vector<isa::DynInst> insts;
    void emit(const isa::DynInst &inst) override { insts.push_back(inst); }
};

TEST(PackedTrace, RoundTripsRealKernelStream)
{
    // Capture one raw stream straight off the Machine, pack it, and
    // compare the decode field by field.
    driver::Workload w = driver::makeWorkload(crypto::CipherId::Rijndael);
    auto build = kernels::buildKernel(crypto::CipherId::Rijndael,
                                      kernels::KernelVariant::Optimized,
                                      w.key, w.iv, driver::session_bytes);
    isa::Machine m;
    build.install(m, kernels::toWordImage(crypto::CipherId::Rijndael,
                                          w.plaintext));
    VectorSink raw;
    m.run(build.program, &raw, 1ull << 32);
    ASSERT_FALSE(raw.insts.empty());

    PackedTrace packed;
    for (const auto &inst : raw.insts)
        packed.append(inst);
    ASSERT_EQ(packed.size(), raw.insts.size());

    auto r = packed.reader();
    for (size_t i = 0; i < raw.insts.size(); i++) {
        ASSERT_FALSE(r.done());
        expectInstEqual(withoutResult(raw.insts[i]), r.next(), i);
    }
    EXPECT_TRUE(r.done());
}

TEST(PackedTrace, RoundTripsSyntheticEscapePaths)
{
    // Random walks over random static programs reach every successor
    // rule (fall-through, taken and not-taken conditional branches,
    // Br, Halt's nextPc 0), every access size and address 0.
    util::Xorshift64 rng(0xBEEF);
    for (uint32_t programSize : {1u, 2u, 17u, 300u}) {
        const auto program = testprog::makeRandomProgram(rng, programSize);
        const uint32_t start =
            static_cast<uint32_t>(rng.nextBelow(programSize));
        const auto stream = testprog::randomWalk(program, rng, 4096, start);

        PackedTrace packed;
        for (const auto &inst : stream)
            packed.append(inst);

        auto r = packed.reader();
        for (size_t i = 0; i < stream.size(); i++) {
            expectInstEqual(withoutResult(stream[i]), r.next(), i);
            if (HasFailure())
                return;
        }
        EXPECT_TRUE(r.done());

        // Independent readers decode independently.
        auto r2 = packed.reader();
        expectInstEqual(withoutResult(stream[0]), r2.next(), 0);
    }
}

TEST(PackedTrace, DropResultModeZeroesResultsOnly)
{
    isa::DynInst d;
    d.seq = 0;
    d.pc = 7;
    d.result = 0xDEADBEEF;
    d.nextPc = 8;
    PackedTrace packed;
    packed.append(d);
    auto out = packed.reader().next();
    EXPECT_EQ(out.result, 0u);
    out.result = d.result;
    expectInstEqual(d, out, 0);
}

TEST(PackedTrace, PackedBytesBeatDynInstSeveralFold)
{
    // The whole point: a recorded kernel trace must be several times
    // smaller than the 56-byte-per-DynInst representation it replaced.
    auto trace = driver::recordKernelTrace(crypto::CipherId::RC4,
                                           kernels::KernelVariant::Optimized);
    ASSERT_GT(trace.instructions(), 0u);
    const size_t rawBytes = trace.instructions() * sizeof(isa::DynInst);
    EXPECT_LT(trace.storedBytes() * 3, rawBytes)
        << "stored " << trace.storedBytes() << " vs raw " << rawBytes;
}

TEST(PackedTrace, ClearEmptiesEverything)
{
    isa::DynInst d;
    PackedTrace packed;
    packed.append(d);
    EXPECT_EQ(packed.size(), 1u);
    EXPECT_GT(packed.packedBytes(), 0u);
    packed.clear();
    EXPECT_TRUE(packed.empty());
    auto r = packed.reader();
    EXPECT_TRUE(r.done());
}

// --- record-path parity over the kernel catalog ----------------------
//
// The interpreter's stream leaves a run two ways: through the driver's
// record path (recordKernelTrace: packed, results dropped, oracle
// checked) and through any plain TraceSink's emit(). BackendParity
// holds the two to the same stream for every (cipher, variant,
// direction) the catalog builds.

/** Session small enough for -O0 CI yet multi-block for every cipher. */
constexpr size_t parity_bytes = 256;

/** Packed append straight off emit(). */
struct PackedSink : isa::TraceSink
{
    PackedTrace trace;
    void emit(const isa::DynInst &d) override { trace.append(d); }
};

struct ParityCase
{
    crypto::CipherId cipher;
    kernels::KernelVariant variant;
    kernels::KernelDirection direction;
};

std::string
parityCaseName(const ::testing::TestParamInfo<ParityCase> &info)
{
    const auto &c = info.param;
    std::string name = "K_"; // gtest names may not start with a digit
    name += crypto::cipherInfo(c.cipher).name;
    name += '_';
    name += kernels::variantName(c.variant);
    name += c.direction == kernels::KernelDirection::Encrypt ? "_enc"
                                                             : "_dec";
    for (auto &ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name;
}

std::vector<ParityCase>
allParityCases()
{
    std::vector<ParityCase> cases;
    for (const auto &info : crypto::cipherCatalog()) {
        for (auto v : {kernels::KernelVariant::BaselineNoRot,
                       kernels::KernelVariant::BaselineRot,
                       kernels::KernelVariant::Optimized,
                       kernels::KernelVariant::OptimizedGrp,
                       kernels::KernelVariant::OptimizedFused}) {
            cases.push_back({info.id, v, kernels::KernelDirection::Encrypt});
            cases.push_back({info.id, v, kernels::KernelDirection::Decrypt});
        }
    }
    return cases;
}

/** The driver's workload for @p c: kernel build plus its input. */
struct ParityRun
{
    driver::Workload w;
    std::vector<uint8_t> input;
    kernels::KernelBuild build;

    explicit ParityRun(const ParityCase &c)
        : w(driver::makeWorkload(c.cipher, parity_bytes)),
          input(c.direction == kernels::KernelDirection::Encrypt
                    ? w.plaintext
                    : verify::referenceProcess(
                          c.cipher, w.key, w.iv, w.plaintext,
                          kernels::KernelDirection::Encrypt)),
          build(kernels::buildKernel(c.cipher, c.variant, w.key, w.iv,
                                     parity_bytes, c.direction))
    {}

    /** Run on a fresh interpreter into @p sink; returns its output. */
    std::vector<uint8_t>
    run(isa::TraceSink &sink, isa::RunStats *stats = nullptr) const
    {
        isa::Machine m;
        build.install(m, kernels::toWordImage(build.cipher, input));
        const auto st = m.run(build.program, &sink, 1ull << 32);
        if (stats)
            *stats = st;
        return build.readOutput(m);
    }
};

class BackendParity : public ::testing::TestWithParam<ParityCase>
{};

/**
 * The recorded trace replays the exact stream the interpreter emits
 * (results dropped, nothing else), with seq equal to the stream index,
 * and its packed encoding round-trips through serialize() /
 * deserialize() byte for byte.
 */
TEST_P(BackendParity, StreamsFieldForFieldIdentical)
{
    const auto &c = GetParam();
    auto trace = driver::recordKernelTrace(c.cipher, c.variant,
                                           parity_bytes, c.direction);

    ParityRun run(c);
    VectorSink raw;
    isa::RunStats stats;
    run.run(raw, &stats);
    EXPECT_EQ(stats.instructions, trace.instructions());

    VectorSink replayed;
    trace.replay(replayed);
    ASSERT_EQ(replayed.insts.size(), raw.insts.size());
    for (size_t i = 0; i < raw.insts.size(); i++) {
        isa::DynInst want = raw.insts[i];
        want.result = 0; // recording drops results
        ASSERT_EQ(replayed.insts[i].seq, i);
        expectInstEqual(want, replayed.insts[i], i);
        if (HasFailure())
            return;
    }

    // The serialization reloads to the same stream.
    const auto bytes = trace.packedStream().serialize();
    const PackedTrace copy = PackedTrace::deserialize(bytes);
    EXPECT_EQ(copy.serialize(), bytes);
    auto r = copy.reader();
    for (size_t i = 0; i < raw.insts.size(); i++) {
        expectInstEqual(withoutResult(raw.insts[i]), r.next(), i);
        if (HasFailure())
            return;
    }
    EXPECT_TRUE(r.done());
}

/**
 * At the standard session size every kernel's recording (appended
 * under the strict contract) takes at most 3 B/inst in its
 * per-instruction columns, and its serialization reloads to the same
 * stream. The static table comes on top: it is a cost per program
 * instruction, and it is what lifts the one kernel whose instructions
 * are 74% memory accesses, Rijndael OptimizedFused decrypt, to
 * 3.04 B/inst in total at 4 KB.
 */
TEST_P(BackendParity, StandardSessionStoresAtMostThreeBytesPerInst)
{
    const auto &c = GetParam();
    auto trace = driver::recordKernelTrace(
        c.cipher, c.variant, driver::session_bytes, c.direction);
    const PackedTrace &packed = trace.packedStream();
    EXPECT_LE(packed.packedBytes() - packed.staticBytes(),
              3 * packed.size())
        << packed.packedBytes() << " bytes, " << packed.staticBytes()
        << " of them static, for " << packed.size() << " instructions";
    const PackedTrace copy = PackedTrace::deserialize(packed.serialize());
    ASSERT_EQ(copy.size(), packed.size());
    auto a = packed.reader();
    auto b = copy.reader();
    for (size_t i = 0; i < packed.size(); i++) {
        expectInstEqual(a.next(), b.next(), i);
        if (HasFailure())
            return;
    }
}

/**
 * A plain emit() sink and a packed sink see the same stream, results
 * aside, and both runs leave the reference cipher's output in data
 * memory.
 */
TEST_P(BackendParity, VirtualEmitPathMatches)
{
    const auto &c = GetParam();
    ParityRun run(c);

    VectorSink a;
    const auto outA = run.run(a);
    PackedSink b;
    const auto outB = run.run(b);

    ASSERT_EQ(a.insts.size(), b.trace.size());
    auto r = b.trace.reader();
    for (size_t i = 0; i < a.insts.size(); i++) {
        expectInstEqual(withoutResult(a.insts[i]), r.next(), i);
        if (HasFailure())
            return;
    }

    EXPECT_EQ(outA, outB);
    EXPECT_EQ(kernels::fromWordImage(c.cipher, outA),
              verify::referenceProcess(c.cipher, run.w.key, run.w.iv,
                                       run.input, c.direction));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, BackendParity,
                         ::testing::ValuesIn(allParityCases()),
                         parityCaseName);

/**
 * The Blowfish key-setup kernel (Figure 6) records under the same
 * contract and bound as the session kernels, for every variant.
 */
TEST(SetupKernelTrace, BlowfishRecordsCompactly)
{
    const auto w = driver::makeWorkload(crypto::CipherId::Blowfish);
    for (auto v : {kernels::KernelVariant::BaselineNoRot,
                   kernels::KernelVariant::BaselineRot,
                   kernels::KernelVariant::Optimized,
                   kernels::KernelVariant::OptimizedGrp,
                   kernels::KernelVariant::OptimizedFused}) {
        SCOPED_TRACE(kernels::variantName(v));
        const auto build = kernels::buildBlowfishSetupKernel(v, w.key);
        isa::Machine m;
        for (const auto &[addr, bytes] : build.memInit)
            m.writeMem(addr, bytes);
        VectorSink raw;
        m.run(build.program, &raw, 1ull << 28);

        PackedTrace packed;
        for (const auto &inst : raw.insts)
            packed.append(inst);
        EXPECT_LE(packed.packedBytes(), 3 * packed.size());
        const PackedTrace copy =
            PackedTrace::deserialize(packed.serialize());
        auto r = copy.reader();
        for (size_t i = 0; i < raw.insts.size(); i++) {
            expectInstEqual(withoutResult(raw.insts[i]), r.next(), i);
            if (HasFailure())
                return;
        }
        EXPECT_TRUE(r.done());
    }
}

// --- targeted stream shapes -------------------------------------------

/**
 * rc == R63 ALU results are discarded: the emitted instruction keeps
 * dest R63 and result 0, and the packed encoding of the stream matches
 * a re-encoding of the raw emit() stream byte for byte.
 */
TEST(BackendStreamShapes, DiscardedDestinationParity)
{
    using isa::Reg;
    constexpr Reg r1{1}, r2{2}, r3{3};
    isa::Assembler a;
    a.li(7, r1);
    a.li(9, r2);
    a.addq(r1, r2, isa::reg_zero); // result discarded
    a.xor_(r1, r2, isa::reg_zero); // result discarded
    a.mulq(r1, r2, r3);            // result kept
    a.halt();
    const isa::Program p = a.finalize();

    PackedSink packed;
    VectorSink raw;
    isa::Machine().run(p, &packed);
    isa::Machine().run(p, &raw);

    PackedTrace reencoded;
    for (const auto &d : raw.insts)
        reencoded.append(d);
    EXPECT_EQ(packed.trace.serialize(), reencoded.serialize());

    for (size_t i : {size_t{2}, size_t{3}}) {
        EXPECT_EQ(raw.insts[i].dest, isa::reg_zero.n) << i;
        EXPECT_EQ(raw.insts[i].result, 0u) << i;
    }
    EXPECT_EQ(raw.insts[4].result, 63u);
}

/**
 * A packed sink that already holds rows takes a new run after them.
 * Sequence numbers are implicit in the encoding, so the sink renumbers
 * each emitted instruction from its current size, and the appended
 * rows decode with seq continuing from the existing ones.
 */
TEST(BackendStreamShapes, NonEmptyPackedSinkFallsBackToEmit)
{
    struct AppendingSink : isa::TraceSink
    {
        PackedTrace trace;
        uint64_t base = 0;
        void
        emit(const isa::DynInst &d) override
        {
            isa::DynInst row = d;
            row.seq += base;
            trace.append(row);
        }
    };

    isa::Assembler a;
    a.li(1, isa::Reg{1});
    a.halt();
    const isa::Program p = a.finalize();

    AppendingSink sink;
    isa::DynInst pre;
    pre.seq = 0;
    pre.pc = 7;
    sink.trace.append(pre); // pre-existing row
    sink.base = sink.trace.size();
    isa::Machine().run(p, &sink);
    ASSERT_EQ(sink.trace.size(), 3u);

    auto r = sink.trace.reader();
    const uint32_t pcs[] = {7, 0, 1};
    for (uint64_t i = 0; i < 3; i++) {
        const isa::DynInst d = r.next();
        EXPECT_EQ(d.seq, i);
        EXPECT_EQ(d.pc, pcs[i]);
    }
}

} // namespace
