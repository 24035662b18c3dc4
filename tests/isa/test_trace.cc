/** @file Tests for dynamic trace emission. */

#include <gtest/gtest.h>

#include "isa/machine.hh"

namespace
{

using namespace cryptarch::isa;

constexpr Reg r1{1}, r2{2}, r3{3};

struct VectorSink : TraceSink
{
    std::vector<DynInst> trace;
    void emit(const DynInst &d) override { trace.push_back(d); }
};

TEST(Trace, EmitsEveryRetiredInstruction)
{
    Assembler a;
    a.li(3, r1);
    a.label("loop");
    a.subq(r1, 1, r1);
    a.bne(r1, "loop");
    a.halt();
    Program p = a.finalize();

    Machine m;
    VectorSink sink;
    auto stats = m.run(p, &sink);
    // li + 3x(sub, bne) + halt = 8
    EXPECT_EQ(stats.instructions, 8u);
    EXPECT_EQ(sink.trace.size(), 8u);
    for (size_t i = 0; i < sink.trace.size(); i++)
        EXPECT_EQ(sink.trace[i].seq, i);
}

TEST(Trace, RecordsBranchDirection)
{
    Assembler a;
    a.li(2, r1);
    a.label("loop");
    a.subq(r1, 1, r1);
    a.bne(r1, "loop");
    a.halt();
    Program p = a.finalize();

    Machine m;
    VectorSink sink;
    m.run(p, &sink);
    std::vector<bool> branch_taken;
    for (const auto &d : sink.trace) {
        if (d.branch)
            branch_taken.push_back(d.taken);
    }
    ASSERT_EQ(branch_taken.size(), 2u);
    EXPECT_TRUE(branch_taken[0]);  // r1 = 1 -> taken
    EXPECT_FALSE(branch_taken[1]); // r1 = 0 -> fall through
}

TEST(Trace, RecordsRegisterDependences)
{
    Assembler a;
    a.addq(r1, r2, r3);
    a.halt();
    Program p = a.finalize();
    Machine m;
    VectorSink sink;
    m.run(p, &sink);
    const auto &d = sink.trace[0];
    EXPECT_EQ(d.numSrcs, 2);
    EXPECT_EQ(d.srcs[0], 1);
    EXPECT_EQ(d.srcs[1], 2);
    EXPECT_EQ(d.dest, 3);
}

TEST(Trace, RecordsMemoryAddresses)
{
    Assembler a;
    a.li(0x1000, r1);
    a.stq(r2, r1, 8);
    a.ldl(r3, r1, 8);
    a.halt();
    Program p = a.finalize();
    Machine m;
    VectorSink sink;
    m.run(p, &sink);
    const auto &st = sink.trace[1];
    EXPECT_TRUE(st.isStore);
    EXPECT_EQ(st.addr, 0x1008u);
    EXPECT_EQ(st.size, 8);
    EXPECT_EQ(st.addrSrc, 1);
    const auto &ld = sink.trace[2];
    EXPECT_TRUE(ld.isLoad);
    EXPECT_EQ(ld.addr, 0x1008u);
    EXPECT_EQ(ld.size, 4);
}

TEST(Trace, RecordsResultValuesForValuePrediction)
{
    Assembler a;
    a.li(5, r1);
    a.addq(r1, 10, r2);
    a.halt();
    Program p = a.finalize();
    Machine m;
    VectorSink sink;
    m.run(p, &sink);
    EXPECT_EQ(sink.trace[0].result, 5u);
    EXPECT_EQ(sink.trace[1].result, 15u);
}

TEST(Trace, ZeroDestIsNotADependence)
{
    Assembler a;
    a.li(7, r1);
    a.li(9, r2);
    a.addq(r1, r2, reg_zero); // result discarded
    a.mulq(r1, r2, r3);       // result kept
    a.halt();
    Program p = a.finalize();
    Machine m;
    VectorSink sink;
    m.run(p, &sink);
    EXPECT_EQ(sink.trace[2].dest, reg_zero.n);
    EXPECT_EQ(sink.trace[2].result, 0u);
    EXPECT_EQ(sink.trace[3].dest, r3.n);
    EXPECT_EQ(sink.trace[3].result, 63u);
}

TEST(Trace, SboxCarriesTableMetadata)
{
    Assembler a;
    a.li(0x2000, r1);
    a.sbox(3, 1, r1, r2, r3, true);
    a.halt();
    Program p = a.finalize();
    Machine m;
    VectorSink sink;
    m.run(p, &sink);
    const auto &d = sink.trace[1];
    EXPECT_EQ(d.tableId, 3);
    EXPECT_TRUE(d.aliased);
    EXPECT_TRUE(d.isLoad);
    EXPECT_EQ(d.cls, OpClass::Load);
}

} // namespace
