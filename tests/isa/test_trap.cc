/**
 * @file
 * Structured-trap tests: every machine failure mode raises an
 * isa::Trap carrying its cause, pc/seq context, and (for memory
 * faults) the effective address — while remaining catchable as
 * std::runtime_error at legacy call sites. Assembler errors carry
 * source-label context the same way. BackendTrapParity runs each trap
 * into a packed recorder and into a plain capture sink and requires
 * the same trap and the same retired prefix from both.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "isa/machine.hh"
#include "isa/packed_trace.hh"
#include "isa/program.hh"
#include "isa/trap.hh"

namespace
{

using namespace cryptarch::isa;

constexpr Reg r1{1}, r2{2}, r3{3};

/** Capture sink for the retired stream. */
struct CaptureSink : TraceSink
{
    std::vector<DynInst> insts;
    void emit(const DynInst &d) override { insts.push_back(d); }
};

/**
 * Run @p p and return the trap it must raise. A trapping run has
 * already emitted every instruction before the faulting one — exactly
 * seq of them, in order — and not the faulting instruction itself.
 */
Trap
expectTrap(const Program &p, Machine &m, uint64_t fuel = 1ull << 20)
{
    CaptureSink sink;
    try {
        m.run(p, &sink, fuel);
    } catch (const Trap &t) {
        EXPECT_EQ(sink.insts.size(), t.seq().value_or(~0ull))
            << "retired prefix";
        for (size_t i = 0; i < sink.insts.size(); i++)
            EXPECT_EQ(sink.insts[i].seq, i);
        return t;
    }
    ADD_FAILURE() << "program completed without trapping";
    return Trap(TrapCause::PcOverrun, "unreachable");
}

/** Append a halt to @p a and run it to its trap. */
Trap
expectTrap(Assembler &a, Machine &m, uint64_t fuel = 1ull << 20)
{
    a.halt();
    return expectTrap(a.finalize(), m, fuel);
}

TEST(Trap, OobLoadCarriesCauseAddressAndContext)
{
    Machine m(4096);
    Assembler a;
    a.li(0x10000, r1); // beyond the 4 KB memory
    a.ldq(r2, r1, 8);
    Trap t = expectTrap(a, m);

    EXPECT_EQ(t.cause(), TrapCause::OobLoad);
    ASSERT_TRUE(t.addr().has_value());
    EXPECT_EQ(*t.addr(), 0x10008u);
    ASSERT_TRUE(t.accessSize().has_value());
    EXPECT_EQ(*t.accessSize(), 8u);
    ASSERT_TRUE(t.pc().has_value());
    EXPECT_EQ(*t.pc(), 1u); // the ldq is instruction 1
    ASSERT_TRUE(t.seq().has_value());
    EXPECT_EQ(*t.seq(), 1u);

    // Register snapshot: r1 holds the bad base address.
    ASSERT_TRUE(t.regs().has_value());
    EXPECT_EQ((*t.regs())[r1.n], 0x10000u);

    // Legacy what(): names the cause, address, and pc.
    const std::string msg = t.what();
    EXPECT_NE(msg.find("oob-load"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0x10008"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pc=1"), std::string::npos) << msg;
}

TEST(Trap, OobStoreIsDistinguishedFromLoad)
{
    Machine m(4096);
    Assembler a;
    a.li(0xFFFFFF, r1);
    a.stq(r2, r1, 0);
    Trap t = expectTrap(a, m);
    EXPECT_EQ(t.cause(), TrapCause::OobStore);
    EXPECT_NE(std::string(t.what()).find("oob-store"),
              std::string::npos);
}

TEST(Trap, MisalignedAccessTraps)
{
    Machine m;
    Assembler a;
    a.li(0x1003, r1);
    a.ldl(r2, r1, 0); // 4-byte load at a 1-mod-4 address
    Trap t = expectTrap(a, m);
    EXPECT_EQ(t.cause(), TrapCause::Misaligned);
    ASSERT_TRUE(t.addr().has_value());
    EXPECT_EQ(*t.addr(), 0x1003u);
}

TEST(Trap, FuelExhaustionTraps)
{
    Machine m;
    Assembler a;
    a.label("spin");
    a.addq(r1, 1, r1);
    a.br("spin");
    Trap t = expectTrap(a, m, /*fuel=*/1000);
    EXPECT_EQ(t.cause(), TrapCause::FuelExhausted);
    EXPECT_EQ(*t.seq(), 1000u);
    EXPECT_NE(std::string(t.what()).find("fuel-exhausted"),
              std::string::npos);
}

TEST(Trap, InvalidSboxTableTrapsAtExecution)
{
    // The assembler rejects bad designators at emit time, so forge one
    // post-assembly: the machine must still catch it.
    Machine m;
    Assembler a;
    a.sbox(0, 0, r1, r2, r3);
    a.halt();
    Program p = a.finalize();
    p.insts[0].tableId = max_sbox_tables; // first invalid designator
    Trap t = expectTrap(p, m);
    EXPECT_EQ(t.cause(), TrapCause::InvalidSboxTable);
    ASSERT_TRUE(t.tableId().has_value());
    EXPECT_EQ(*t.tableId(), max_sbox_tables);
}

TEST(Trap, PcOverrunTraps)
{
    // A program with no halt runs off its end.
    Machine m;
    Assembler a;
    a.addq(r1, 1, r1);
    Trap t = expectTrap(a.finalize(), m);
    EXPECT_EQ(t.cause(), TrapCause::PcOverrun);
    EXPECT_EQ(*t.seq(), 1u);
    EXPECT_NE(std::string(t.what()).find("pc-overrun"), std::string::npos);
}

TEST(Trap, LegacyRuntimeErrorCatchStillWorks)
{
    Machine m(4096);
    Assembler a;
    a.li(0x100000, r1);
    a.ldq(r2, r1, 0);
    a.halt();
    Program p = a.finalize();
    EXPECT_THROW(m.run(p), std::runtime_error);
}

TEST(Trap, BulkAccessorTrapsWithoutExecutionContext)
{
    Machine m(4096);
    try {
        m.writeMem(1 << 20, std::vector<uint8_t>{0});
        FAIL() << "out-of-bounds writeMem did not trap";
    } catch (const Trap &t) {
        EXPECT_EQ(t.cause(), TrapCause::OobStore);
        EXPECT_FALSE(t.pc().has_value());
        EXPECT_FALSE(t.regs().has_value());
    }
}

// --- trap reproducibility ---------------------------------------------

/** Packed append straight off emit(). */
struct PackedSink : TraceSink
{
    PackedTrace trace;
    void emit(const DynInst &d) override { trace.append(d); }
};

/**
 * Run @p p on two fresh machines with identical @p fuel, one feeding a
 * packed recorder and one a plain capture sink. Both must trap with the
 * same cause, pc, seq, address, table and message, having retired the
 * same prefix (everything before the trapping instruction). Returns
 * the first trap for cause-specific assertions.
 */
Trap
expectTrapParity(const Program &p, uint64_t fuel = 1ull << 20)
{
    PackedSink packed;
    CaptureSink raw;

    auto runOne = [&](TraceSink *sink) -> std::optional<Trap> {
        Machine m;
        try {
            m.run(p, sink, fuel);
        } catch (const Trap &t) {
            return t;
        }
        return std::nullopt;
    };

    auto ta = runOne(&packed);
    auto tb = runOne(&raw);
    if (!ta || !tb) {
        ADD_FAILURE() << "expected both runs to trap (packed="
                      << ta.has_value() << " raw=" << tb.has_value()
                      << ")";
        return Trap(TrapCause::PcOverrun, "unreachable");
    }

    EXPECT_EQ(ta->cause(), tb->cause());
    EXPECT_EQ(ta->pc(), tb->pc());
    EXPECT_EQ(ta->seq(), tb->seq());
    EXPECT_EQ(ta->addr(), tb->addr());
    EXPECT_EQ(ta->accessSize(), tb->accessSize());
    EXPECT_EQ(ta->tableId(), tb->tableId());
    EXPECT_STREQ(ta->what(), tb->what());

    // Retired prefix parity: exactly seq instructions, same encoding.
    EXPECT_EQ(raw.insts.size(), ta->seq().value_or(~0ull));
    PackedTrace reencoded;
    for (const auto &d : raw.insts)
        reencoded.append(d);
    EXPECT_EQ(packed.trace.serialize(), reencoded.serialize());
    return *ta;
}

TEST(BackendTrapParity, OobLoad)
{
    Assembler a;
    a.li(0x10'0000'0000, r1); // wide (> 2^32) and out of bounds
    a.ldq(r2, r1, 8);
    a.halt();
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::OobLoad);
    EXPECT_EQ(*t.seq(), 1u);
    EXPECT_EQ(*t.addr(), 0x10'0000'0008u); // the full address, not 32 bits
}

TEST(BackendTrapParity, OobStore)
{
    Assembler a;
    a.li(0xFFFFFF, r1);
    a.stq(r2, r1, 0);
    a.halt();
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::OobStore);
}

TEST(BackendTrapParity, MisalignedAccess)
{
    Assembler a;
    a.li(13, r1);
    a.ldl(r2, r1, 0);
    a.halt();
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::Misaligned);
}

TEST(BackendTrapParity, InvalidSboxTable)
{
    // The assembler rejects bad designators at emit time, so forge one
    // post-assembly; execution must catch it.
    Assembler a;
    a.li(0, r1);
    a.li(0, r2);
    a.sbox(0, 0, r1, r2, r3);
    a.halt();
    Program p = a.finalize();
    p.insts[2].tableId = max_sbox_tables;
    Trap t = expectTrapParity(p);
    EXPECT_EQ(t.cause(), TrapCause::InvalidSboxTable);
    EXPECT_EQ(*t.tableId(), max_sbox_tables);
}

TEST(BackendTrapParity, FuelExhausted)
{
    Assembler a;
    a.label("spin");
    a.addq(r1, 1, r1);
    a.br("spin");
    a.halt();
    Trap t = expectTrapParity(a.finalize(), 1000);
    EXPECT_EQ(t.cause(), TrapCause::FuelExhausted);
    EXPECT_EQ(*t.seq(), 1000u);
}

TEST(BackendTrapParity, PcOverrun)
{
    Assembler a;
    a.li(5, r1);
    a.addq(r1, 1, r2); // falls off the end: no halt
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::PcOverrun);
}

TEST(AsmError, UndefinedLabelNamesLabelAndInstruction)
{
    Assembler a;
    a.beq(r1, "nowhere");
    a.halt();
    try {
        a.finalize();
        FAIL() << "undefined label did not throw";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.label(), "nowhere");
        EXPECT_EQ(e.instIndex(), 0u);
        EXPECT_NE(std::string(e.what()).find("nowhere"),
                  std::string::npos);
    }
}

TEST(AsmError, DuplicateLabelNamesBothSites)
{
    Assembler a;
    a.label("twice");
    a.addq(r1, 1, r1);
    try {
        a.label("twice");
        FAIL() << "duplicate label did not throw";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.label(), "twice");
        EXPECT_NE(std::string(e.what()).find("twice"),
                  std::string::npos);
    }
}

TEST(AsmError, SboxTableIdValidatedAtEmit)
{
    Assembler a;
    EXPECT_THROW(a.sbox(max_sbox_tables, 0, r1, r2, r3), AsmError);
    EXPECT_THROW(a.sboxx(max_sbox_tables + 3, 0, r1, r2, r3), AsmError);
    // The last valid designator is accepted.
    a.sbox(max_sbox_tables - 1, 0, r1, r2, r3);
}

} // namespace
