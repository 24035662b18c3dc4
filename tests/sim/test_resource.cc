/**
 * @file
 * Differential verification of the ring-buffer CycleResource against
 * the original unordered_map implementation (cycle_resource_ref.hh).
 *
 * The ring claims bit-identical behavior including the reference's
 * quirks — probe-created entries, the >= 4096-entry erase gate, and
 * phantom capacity on probes below an erased horizon — so the property
 * test drives both through long random op sequences (booking walks,
 * joint tryBook/unbook reservations, horizon prunes, deliberate
 * below-horizon probes) and demands every return value and the live
 * entry count agree at every step. The read-only firstFit() scan is
 * checked against the reference's probe-by-probe walk the same way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cycle_resource_ref.hh"
#include "sim/resource.hh"

namespace
{

using cryptarch::sim::Cycle;
using cryptarch::sim::CycleResource;
using cryptarch::tests::CycleResourceRef;

TEST(CycleResourceRing, NextFreeSkipsFullCycles)
{
    CycleResource res(2);
    res.book(10, 2);
    res.book(11, 1);
    EXPECT_EQ(res.nextFree(10), 11u);     // cycle 10 full, 11 has room
    EXPECT_EQ(res.nextFree(10, 2), 12u);  // 2 units skip 10 and 11
    EXPECT_EQ(res.nextFree(12), 12u);     // past every booking: free
}

TEST(CycleResourceRing, NextFreeDoesNotBook)
{
    CycleResource res(1);
    EXPECT_EQ(res.nextFree(5), 5u);
    EXPECT_EQ(res.nextFree(5), 5u);
    EXPECT_TRUE(res.canReserve(5));
}

TEST(CycleResourceRing, ReserveIsNextFreePlusBook)
{
    CycleResource res(1);
    EXPECT_EQ(res.reserve(7), 7u);
    EXPECT_EQ(res.reserve(7), 8u);
    EXPECT_EQ(res.reserve(0), 0u); // below every booking: free
}

TEST(CycleResourceRing, WindowSlidesAndRegrowsDownward)
{
    CycleResource res(1);
    // March far enough forward that the window must slide many times.
    for (Cycle c = 0; c < 100000; c += 97)
        EXPECT_EQ(res.reserve(c), c);
    // A probe far below the window base must still see those bookings.
    EXPECT_FALSE(res.canReserve(0));
    EXPECT_EQ(res.reserve(1), 1u);
    EXPECT_FALSE(res.canReserve(1));
}

TEST(CycleResourceRing, FirstFitSkipsFullRunsWithoutTouching)
{
    CycleResource res(1);
    for (Cycle c = 0; c < 40; c++)
        res.book(c);
    res.book(41);
    EXPECT_EQ(res.firstFit(0), 40u);  // 40 full cells, scanned in blocks
    EXPECT_EQ(res.firstFit(40), 40u);
    EXPECT_EQ(res.firstFit(41), 42u); // past the highest entry: free
    EXPECT_EQ(res.firstFit(1000), 1000u);
    EXPECT_EQ(res.entryCount(), 41u); // no probe created an entry

    CycleResource pair(2);
    pair.book(10, 1);
    EXPECT_EQ(pair.firstFit(10, 1), 10u);
    EXPECT_EQ(pair.firstFit(10, 2), 11u);

    // Below the window base a cycle's ring position aliases a live
    // cell (any power-of-two window up to 2^16 maps both to the same
    // slot); the scan must read it as absent, i.e. free.
    CycleResource high(1);
    for (Cycle c = 100000; c < 100040; c++)
        high.book(c);
    const Cycle alias = 100000 - (Cycle{1} << 16);
    EXPECT_EQ(high.firstFit(alias), alias);
}

TEST(CycleResourceRing, UnlimitedTracksNothing)
{
    CycleResource res(0);
    EXPECT_EQ(res.reserve(42, 100), 42u);
    EXPECT_EQ(res.nextFree(42), 42u);
    EXPECT_TRUE(res.canReserve(42, 1000));
    EXPECT_EQ(res.firstFit(42, 100), 42u);
    EXPECT_EQ(res.entryCount(), 0u);
    EXPECT_FALSE(res.limited());
}

/**
 * One random differential episode: identical op streams into the ring
 * and the reference, comparing every observable result. The cycle
 * cursor random-walks forward (like issue frontiers do), with a slice
 * of probes aimed below the last prune horizon to exercise the erased
 * region, and prunes sized to cross the 4096-entry gate.
 */
void
differentialEpisode(unsigned cap, uint32_t seed, int ops)
{
    std::mt19937 rng(seed);
    CycleResource ring(cap);
    CycleResourceRef ref(cap);

    Cycle cursor = 0;
    Cycle horizon = 0;
    const unsigned maxUnits = cap == 0 ? 4 : cap;

    auto pickCycle = [&]() -> Cycle {
        unsigned kind = rng() % 10;
        if (kind == 0 && horizon > 0)
            return rng() % horizon; // below the pruned horizon
        if (kind <= 4)
            return cursor + rng() % 4; // near the frontier
        cursor += rng() % 3;
        return cursor;
    };

    for (int i = 0; i < ops; i++) {
        unsigned units = 1 + rng() % maxUnits;
        Cycle cycle = pickCycle();
        switch (rng() % 6) {
        case 0:
            ASSERT_EQ(ring.reserve(cycle, units), ref.reserve(cycle, units))
                << "reserve(" << cycle << ", " << units << ") op " << i;
            break;
        case 1:
            ASSERT_EQ(ring.nextFree(cycle, units),
                      ref.nextFree(cycle, units))
                << "nextFree(" << cycle << ", " << units << ") op " << i;
            break;
        case 2:
            ASSERT_EQ(ring.canReserve(cycle, units),
                      ref.canReserve(cycle, units))
                << "canReserve(" << cycle << ", " << units << ") op " << i;
            break;
        case 3: {
            // Joint reservation: tryBook, then roll back half the time
            // (exactly the scheduler's slot+FU pattern).
            bool a = ring.tryBook(cycle, units);
            bool b = ref.tryBook(cycle, units);
            ASSERT_EQ(a, b)
                << "tryBook(" << cycle << ", " << units << ") op " << i;
            if (a && rng() % 2) {
                ring.unbook(cycle, units);
                ref.unbook(cycle, units);
            }
            break;
        }
        case 4:
            ring.book(cycle, units);
            ref.book(cycle, units);
            break;
        case 5:
            horizon = cursor > 5 ? cursor - rng() % 5 : cursor;
            ring.retireBefore(horizon);
            ref.retireBefore(horizon);
            break;
        }
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << "op " << i;
    }
}

TEST(CycleResourceDifferential, RandomOpsMatchReference)
{
    for (unsigned cap : {1u, 2u, 3u, 4u, 8u})
        differentialEpisode(cap, 0xC0FFEE + cap, 20000);
}

TEST(CycleResourceDifferential, UnlimitedMatchesReference)
{
    differentialEpisode(0, 0xDECAF, 5000);
}

/**
 * firstFit() against the reference's per-cycle probe walk, which it
 * stands in for in the scheduler's unlimited-issue retry loop. Bursts
 * of reservations at one cycle build the long full runs a DF+Res
 * replay scans; the cursor occasionally jumps far
 * enough that the window must grow, prunes cross the 4096-entry gate,
 * and probes below the pruned horizon hit phantom capacity and slide
 * the window base down. At every check the ring's read-only scan must
 * name the cycle where the reference walk books, and booking just that
 * cycle must leave the reference walk's entry count.
 */
void
firstFitEpisode(unsigned cap, uint32_t seed, int ops)
{
    std::mt19937 rng(seed);
    CycleResource ring(cap);
    CycleResourceRef ref(cap);
    const unsigned maxUnits = cap < 2 ? cap : 2;

    Cycle cursor = 0;
    Cycle horizon = 0;
    Cycle frontier = 0; ///< highest cycle any reservation landed on

    auto check = [&](Cycle cycle, unsigned units, int op) {
        const Cycle fit = ring.firstFit(cycle, units);
        Cycle won = cycle;
        while (!ref.tryBook(won, units))
            won++;
        ASSERT_EQ(fit, won)
            << "firstFit(" << cycle << ", " << units << ") op " << op;
        ASSERT_TRUE(ring.tryBook(fit, units)) << "op " << op;
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << "op " << op;
    };

    for (int i = 0; i < ops; i++) {
        const unsigned units = 1 + rng() % maxUnits;
        switch (rng() % 8) {
        case 0:
        case 1: {
            Cycle at = cursor + rng() % 8;
            for (unsigned k = rng() % 64; k; k--) {
                Cycle got = ring.reserve(at, units);
                ASSERT_EQ(got, ref.reserve(at, units)) << "burst op " << i;
                frontier = std::max(frontier, got);
            }
            break;
        }
        case 2:
            // Mostly a frontier step, sometimes catching up with the
            // booked backlog (so full runs stay hundreds of cycles
            // long, as in a replay), rarely a jump past the window.
            if (rng() % 50 == 0)
                cursor += 20000 + rng() % 40000;
            else if (rng() % 4 == 0 && frontier > cursor + 64)
                cursor = frontier - rng() % 64;
            else
                cursor += rng() % 4;
            break;
        case 3:
            horizon = cursor > 5 ? cursor - rng() % 5 : cursor;
            ring.retireBefore(horizon);
            ref.retireBefore(horizon);
            break;
        case 4:
            if (horizon > 0) {
                check(rng() % horizon, units, i);
                break;
            }
            [[fallthrough]];
        default:
            check(cursor > 16 ? cursor - rng() % 16 : cursor, units, i);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << "op " << i;
    }
}

TEST(CycleResourceDifferential, FirstFitMatchesPerCycleWalk)
{
    for (unsigned cap : {1u, 2u, 4u})
        firstFitEpisode(cap, 0xF1257 + cap, 15000);
}

TEST(CycleResourceDifferential, EraseGateAndPhantomCapacity)
{
    // Deterministically cross the 4096-entry gate, prune, and verify
    // both implementations agree that erased cycles read as free
    // again (the phantom capacity the Figure 5 models rely on).
    CycleResource ring(1);
    CycleResourceRef ref(1);
    for (Cycle c = 0; c < 5000; c++) {
        ASSERT_EQ(ring.reserve(c), ref.reserve(c));
    }
    ASSERT_EQ(ring.entryCount(), 5000u);
    ring.retireBefore(4500);
    ref.retireBefore(4500);
    ASSERT_EQ(ring.entryCount(), ref.entryCount());
    ASSERT_EQ(ring.entryCount(), 500u);
    for (Cycle c : {0ull, 100ull, 4499ull}) {
        ASSERT_EQ(ring.canReserve(c), ref.canReserve(c)) << c;
        ASSERT_TRUE(ring.canReserve(c)) << c; // erased => free again
        ASSERT_EQ(ring.reserve(c), ref.reserve(c)) << c;
    }
    for (Cycle c : {4500ull, 4999ull}) {
        ASSERT_EQ(ring.canReserve(c), ref.canReserve(c)) << c;
        ASSERT_FALSE(ring.canReserve(c)) << c; // survived the prune
    }
}

TEST(CycleResourceDifferential, BelowGateNothingIsErased)
{
    CycleResource ring(1);
    CycleResourceRef ref(1);
    for (Cycle c = 0; c < 1000; c++)
        ASSERT_EQ(ring.reserve(c), ref.reserve(c));
    ring.retireBefore(1000);
    ref.retireBefore(1000);
    ASSERT_EQ(ring.entryCount(), ref.entryCount());
    ASSERT_EQ(ring.entryCount(), 1000u); // gate not crossed: no sweep
    ASSERT_FALSE(ring.canReserve(500));
}

} // namespace
