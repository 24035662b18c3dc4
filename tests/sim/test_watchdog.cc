/**
 * @file
 * Forward-progress watchdog: an unsatisfiable FU pool admitted under
 * the Trusted policy livelocks the issue loop; the watchdog converts
 * that into a typed isa::Trap{NoProgress} carrying the stalled
 * frontier, and never fires on admissible machines.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/trap.hh"
#include "sim/pipeline.hh"
#include "sim/validate.hh"

namespace
{

using namespace cryptarch;
using sim::MachineConfig;

constexpr isa::Reg r1{1}, r2{2}, r3{3};

/** A few independent adds, one 64-bit multiply, a few more adds. */
isa::Program
mulqProgram()
{
    isa::Assembler a;
    a.li(7, r1);
    a.li(9, r2);
    for (int i = 0; i < 8; i++)
        a.addq(r1, 1, r1);
    a.mulq(r1, r2, r3);
    for (int i = 0; i < 8; i++)
        a.addq(r3, 1, r3);
    a.halt();
    return a.finalize();
}

/** The livelock config: MULQ needs 2 half-slots, the pool has 1. */
MachineConfig
oneHalfSlot()
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.name = "4W-mul1";
    cfg.mulHalfSlots = 1;
    return cfg;
}

TEST(Watchdog, UnsatisfiableMulPoolTrapsInsteadOfHanging)
{
    isa::Machine m;
    try {
        sim::simulate(m, mulqProgram(), oneHalfSlot(), 1ull << 32,
                      sim::ConfigPolicy::Trusted);
        FAIL() << "expected the watchdog to fire";
    } catch (const isa::Trap &t) {
        EXPECT_EQ(t.cause(), isa::TrapCause::NoProgress);
        // The trap carries the stalled-frontier snapshot: the model,
        // the oldest un-issued instruction's class, and what it is
        // blocked on.
        const std::string msg = t.what();
        EXPECT_NE(msg.find("no forward progress"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("4W-mul1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("IntMult"), std::string::npos) << msg;
        EXPECT_NE(msg.find("CRYPTARCH_SIM_PROGRESS_BUDGET"),
                  std::string::npos)
            << msg;
    }
}

TEST(Watchdog, BudgetOverrideShortensTheFuse)
{
    ASSERT_EQ(sim::progressBudgetOverride(), 0u);
    sim::setProgressBudgetOverride(64);
    isa::Machine m;
    try {
        sim::simulate(m, mulqProgram(), oneHalfSlot(), 1ull << 32,
                      sim::ConfigPolicy::Trusted);
        sim::setProgressBudgetOverride(0);
        FAIL() << "expected the watchdog to fire";
    } catch (const isa::Trap &t) {
        sim::setProgressBudgetOverride(0);
        EXPECT_EQ(t.cause(), isa::TrapCause::NoProgress);
        // The message reports the base budget actually in force.
        EXPECT_NE(std::string(t.what()).find("base budget 64"),
                  std::string::npos)
            << t.what();
    }
}

TEST(Watchdog, UnlimitedIssueTrapReportIsUnchanged)
{
    // An unlimited-issue machine with one D-cache port: 32 independent
    // loads queue on the port, each passing over its predecessors' full
    // cycles in one scan, and the MULQ fed by the last load then
    // livelocks on a one-half-slot multiplier. The report must match
    // the probe-by-probe walk's exactly: the ready cycle the load queue
    // produced, and the stalled frontier at the budget (64 base + 8 per
    // earlier instruction = 336 cycles past ready, 337 failed bookings).
    constexpr isa::Reg r4{4};
    isa::Assembler a;
    a.li(0x1000, r1);
    a.li(9, r2);
    for (int i = 0; i < 32; i++)
        a.ldq(r3, r1, 8 * i);
    a.mulq(r3, r2, r4);
    a.halt();

    MachineConfig cfg = MachineConfig::dataflow();
    cfg.name = "DF-port1-mul1";
    cfg.numDCachePorts = 1;
    cfg.mulHalfSlots = 1;
    sim::setProgressBudgetOverride(64);
    isa::Machine m;
    try {
        sim::simulate(m, a.finalize(), cfg, 1ull << 32,
                      sim::ConfigPolicy::Trusted);
        sim::setProgressBudgetOverride(0);
        FAIL() << "expected the watchdog to fire";
    } catch (const isa::Trap &t) {
        sim::setProgressBudgetOverride(0);
        EXPECT_EQ(t.cause(), isa::TrapCause::NoProgress);
        const std::string msg = t.what();
        EXPECT_NE(msg.find("seq=34 pc=34 class=IntMult blocked on fu_mul"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("(ready cycle 35, probed through cycle 371: "
                           "337 failed unit bookings, 0 issue-slot wait "
                           "cycles; base budget 64"),
                  std::string::npos)
            << msg;
    }
}

TEST(Watchdog, AdmissibleMachinesNeverFire)
{
    // The same MULQ-bearing program completes on every preset: the
    // budget comparison stays quiet on contended-but-live pools.
    auto p = mulqProgram();
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::fourWidePlus(),
          MachineConfig::eightWidePlus(), MachineConfig::dataflow(),
          MachineConfig::dfPlusResources()}) {
        isa::Machine m;
        auto stats = sim::simulate(m, p, cfg);
        EXPECT_GT(stats.cycles, 0u) << cfg.name;
        EXPECT_EQ(stats.instructions, 20u) << cfg.name;
    }
}

TEST(Watchdog, TightButSatisfiablePoolStillCompletes)
{
    // mulHalfSlots == 2 is the minimum satisfiable pool: one MULQ per
    // cycle, heavy retry pressure but guaranteed progress. A long
    // burst of multiplies must complete, not trap.
    isa::Assembler a;
    a.li(3, r1);
    a.li(5, r2);
    for (int i = 0; i < 200; i++)
        a.mulq(r1, r2, r3);
    a.halt();
    auto p = a.finalize();

    MachineConfig cfg = MachineConfig::fourWide();
    cfg.name = "4W-mul2";
    cfg.mulHalfSlots = 2;
    isa::Machine m;
    auto stats =
        sim::simulate(m, p, cfg, 1ull << 32, sim::ConfigPolicy::Trusted);
    EXPECT_EQ(stats.instructions, 203u);
}

} // namespace
