/**
 * @file
 * Per-cycle resource reservation used by the out-of-order scheduler.
 *
 * A CycleResource models a pool with fixed per-cycle capacity (issue
 * slots, ALUs, cache ports, multiplier half-slots). reserve() finds the
 * first cycle at or after a lower bound with spare capacity and books
 * it.
 *
 * Bookkeeping is a power-of-two sliding-window ring buffer indexed by
 * `cycle & mask`: every probe, booking and rollback is one array
 * access, and nextFree() walks consecutive cells instead of paying a
 * hash lookup per losing cycle the way the original
 * std::unordered_map implementation did (kept as the differential
 * reference in tests/sim/cycle_resource_ref.hh).
 *
 * The replacement is bit-identical to that reference by construction,
 * which requires reproducing two behaviors of the map faithfully:
 *
 *  1. Entry bookkeeping. The map created an entry for every *probed*
 *     cycle (operator[] on a full cycle still inserts), and its
 *     amortization gate — "only sweep once the table holds >= 4096
 *     entries" — keys off that entry count. Each ring cell therefore
 *     carries an exists bit next to its 31-bit count, and `entries`
 *     tracks exactly what the map's size() would be.
 *
 *  2. Erase timing. retireBefore() drops bookkeeping below the
 *     horizon only when `entries` crossed the threshold, exactly like
 *     the reference. This matters because the scheduler's horizon for
 *     unlimited-window machines (the Figure 5 DF-isolation models) is
 *     not a true lower bound on future probes: probes below an erased
 *     horizon do occur there, find the count reset to zero, and that
 *     phantom capacity is part of the published per-model numbers.
 *     The ring keeps those low cells addressable (the window slides
 *     only across absent cells, and re-grows downward if a probe
 *     lands below the base), so it reproduces the reference exactly
 *     instead of only on contract-respecting callers.
 *
 * Window invariant: cells outside [base, base + size) are absent
 * (count 0, no entry), absent cells store the value 0, and every
 * existing cell lies in [minExist, hiCycle) ⊆ [base, base + size).
 * Sliding the window forward across absent cells is therefore free —
 * no zeroing pass — and the window only needs to cover the span
 * between the lowest live booking and the highest probed cycle (the
 * max in-flight latency for well-behaved callers).
 */

#ifndef CRYPTARCH_SIM_RESOURCE_HH
#define CRYPTARCH_SIM_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace cryptarch::sim
{

/** Cycle type used throughout the timing model. */
using Cycle = uint64_t;

class CycleResource
{
  public:
    /** @param capacity units available per cycle; 0 = unlimited. */
    explicit CycleResource(unsigned capacity = 0) : cap(capacity) {}

    /**
     * Book @p units at the first cycle >= @p earliest with room and
     * return it. Unlimited resources return @p earliest unchanged.
     */
    Cycle
    reserve(Cycle earliest, unsigned units = 1)
    {
        if (cap == unlimited)
            return earliest;
        Cycle cycle = nextFree(earliest, units);
        bookProbed(cycle, units);
        return cycle;
    }

    /**
     * First cycle >= @p cycle with room for @p units, without booking
     * it. Every probed cycle — the winner included — is recorded as an
     * entry, exactly like the reference map's reserve loop
     * (operator[] inserts on every probe, and the erase amortization
     * keys off the entry count), so this is not const. The scan
     * terminates at the first cycle past the highest existing entry,
     * whose cell necessarily reads zero. @p units must fit the
     * capacity (the reference loop diverges otherwise too).
     */
    Cycle
    nextFree(Cycle cycle, unsigned units = 1)
    {
        if (cap == unlimited)
            return cycle;
        while (touch(cycle) + units > cap)
            ++cycle;
        return cycle;
    }

    /**
     * First cycle >= @p cycle with room for @p units, as a read-only
     * scan: unlike nextFree() it creates no entry and touches nothing.
     * A cycle that has no room holds a count > 0, so it is already an
     * existing entry and probing it would change no bookkeeping; this
     * is what lets the scheduler pass over a run of full cycles in one
     * call and stay bit-identical to probing them one by one. The
     * in-window live span [cycle, hiCycle) is read as contiguous ring
     * spans, 16 cells per OR-reduced block so the fit test vectorizes;
     * every cell at or past hiCycle (or outside the window) is absent
     * and fits. @p units must fit the capacity.
     */
    Cycle
    firstFit(Cycle cycle, unsigned units = 1) const
    {
        if (cap == unlimited || cycle - base >= cells.size())
            return cycle;
        // A cell fits iff its count is at most cap - units.
        const uint32_t room = cap - units;
        while (cycle < hiCycle) {
            size_t pos = cycle & mask;
            size_t span = cells.size() - pos;
            if (hiCycle - cycle < span)
                span = hiCycle - cycle;
            const uint32_t *cell = cells.data() + pos;
            size_t i = 0;
            for (; i + 16 <= span; i += 16) {
                uint32_t fits = 0;
                for (size_t j = 0; j < 16; j++)
                    fits |= (cell[i + j] & count_mask) <= room;
                if (fits)
                    break;
            }
            for (; i < span; i++)
                if ((cell[i] & count_mask) <= room)
                    return cycle + i;
            cycle += span;
        }
        return cycle;
    }

    /** True when @p units fit at @p cycle without booking them. */
    bool
    canReserve(Cycle cycle, unsigned units = 1) const
    {
        if (cap == unlimited)
            return true;
        return countAt(cycle) + units <= cap;
    }

    /** Book @p units at @p cycle; caller checked canReserve. */
    void
    book(Cycle cycle, unsigned units = 1)
    {
        if (cap == unlimited)
            return;
        touch(cycle);
        cells[cycle & mask] += units;
    }

    /**
     * Book @p units at a cycle this resource just returned from
     * nextFree(): the winning cell was touched by the scan, so the
     * entry exists and a single raw add suffices (the issueOf probe
     * loop's companion to nextFree).
     */
    void
    bookProbed(Cycle cycle, unsigned units = 1)
    {
        if (cap != unlimited)
            cells[cycle & mask] += units;
    }

    /**
     * Book @p units at @p cycle if they fit, with a single cell
     * access (canReserve+book costs two). Returns false and books
     * nothing when the cycle is full. The scheduler's joint
     * slot-and-unit reservation is built on this.
     */
    bool
    tryBook(Cycle cycle, unsigned units = 1)
    {
        if (cap == unlimited)
            return true;
        if (touch(cycle) + units > cap)
            return false;
        cells[cycle & mask] += units;
        return true;
    }

    /**
     * Undo a successful tryBook at @p cycle (joint-reservation
     * rollback). Only valid immediately after that tryBook — the cell
     * must still be inside the window.
     */
    void
    unbook(Cycle cycle, unsigned units = 1)
    {
        if (cap != unlimited)
            cells[cycle & mask] -= units;
    }

    /**
     * Drop bookkeeping for cycles below @p horizon. Matches the
     * reference map exactly: the sweep only runs once the structure
     * holds >= 4096 entries (and is skipped outright when the minimum
     * existing entry is already at or above the horizon — the
     * watermark the reference implementation also applies).
     */
    void
    retireBefore(Cycle horizon)
    {
        if (cap == unlimited || entries < prune_threshold)
            return;
        if (minExist >= horizon)
            return;
        Cycle end = horizon < hiCycle ? horizon : hiCycle;
        // The swept cycles are contiguous ring positions (modulo at
        // most one wrap), so sweep them as raw spans — the count-and-
        // zero loop then vectorizes instead of paying a mask and a
        // branch per cycle.
        size_t removed = 0;
        Cycle c = minExist;
        while (c < end) {
            size_t pos = c & mask;
            size_t span = cells.size() - pos;
            if (end - c < span)
                span = end - c;
            uint32_t *cell = cells.data() + pos;
            for (size_t i = 0; i < span; i++) {
                removed += cell[i] != 0;
                cell[i] = 0;
            }
            c += span;
        }
        entries -= removed;
        minExist = horizon;
    }

    bool limited() const { return cap != unlimited; }

    /** Per-cycle capacity (0 = unlimited). */
    unsigned capacity() const { return cap; }

    /**
     * Units currently booked at @p cycle, without creating an entry.
     * The invariant auditor checks bookings never exceed capacity;
     * the scheduler itself never needs this read-only probe.
     */
    unsigned bookedAt(Cycle cycle) const { return countAt(cycle); }

    /** Number of live entries (the reference map's size()). */
    size_t entryCount() const { return entries; }

  private:
    static constexpr uint32_t exists_bit = 0x80000000u;
    static constexpr uint32_t count_mask = exists_bit - 1;
    /** First-allocation window size. Sized so that a scheduler-paced
     *  resource (one entry per cycle, swept every prune_threshold
     *  entries plus the in-flight overshoot) almost never regrows:
     *  warm-up rebuilds otherwise show up in replay profiles. */
    static constexpr size_t initial_cells = 16384;
    /** Entry-count gate before retireBefore sweeps — the reference
     *  map's amortization threshold, load-bearing for erase timing. */
    static constexpr size_t prune_threshold = 4096;

    /** Count at @p cycle without creating an entry (map::find). */
    unsigned
    countAt(Cycle cycle) const
    {
        // One compare covers below-window too: cycle < base wraps the
        // unsigned difference past any vector size. Empty cells give
        // size 0, so everything is out of window.
        if (cycle - base >= cells.size())
            return 0;
        return cells[cycle & mask] & count_mask;
    }

    /**
     * Ensure @p cycle has a cell inside the window, mark it existing
     * (map::operator[]), and return its current count.
     */
    unsigned
    touch(Cycle cycle)
    {
        // Single window check (see countAt): below-base wraps, empty
        // cells have size 0 — both land in reshape.
        if (cycle - base >= cells.size())
            reshape(cycle);
        uint32_t &v = cells[cycle & mask];
        if (!(v & exists_bit)) {
            v = exists_bit;
            if (entries == 0 || cycle < minExist)
                minExist = cycle;
            ++entries;
            if (cycle >= hiCycle)
                hiCycle = cycle + 1;
        }
        return v & count_mask;
    }

    /** Slide or grow the window so @p cycle becomes addressable. */
    void
    reshape(Cycle cycle)
    {
        if (cells.empty()) {
            cells.assign(initial_cells, 0);
            mask = cells.size() - 1;
            base = cycle;
            hiCycle = cycle;
            minExist = cycle;
            return;
        }
        // Live cells occupy [lo, hiCycle); everything else stores 0.
        Cycle lo = entries ? minExist : hiCycle;
        if (cycle < base) {
            // Probe below the window (an unlimited-window model
            // re-probing cycles the horizon already passed). A cell's
            // ring position is cycle & mask — independent of base —
            // so when the live span still fits a window starting at
            // the probe, sliding the base down is free: cells below
            // the old base are absent (store 0) and no cell leaves
            // the new window's top.
            if (hiCycle - cycle <= cells.size()) {
                base = cycle;
                return;
            }
            // Otherwise re-grow so probe and live span fit together.
            rebuild(cycle, lo, cycle);
            return;
        }
        // Slide forward across absent cells — they already store 0,
        // so advancing the base costs nothing.
        Cycle needBase = cycle - cells.size() + 1;
        if (needBase <= lo) {
            base = needBase;
            return;
        }
        // The live span itself no longer fits: grow.
        rebuild(lo, lo, cycle);
    }

    /** Reallocate so the window starts at @p newBase and covers both
     *  every live cell in [@p lo, hiCycle) and @p probe. */
    void
    rebuild(Cycle newBase, Cycle lo, Cycle probe)
    {
        Cycle top = hiCycle > probe + 1 ? hiCycle : probe + 1;
        Cycle span = top - newBase;
        size_t newSize = cells.size();
        while (newSize < span)
            newSize *= 2;
        std::vector<uint32_t> next(newSize, 0);
        size_t newMask = newSize - 1;
        for (Cycle c = lo; c < hiCycle; ++c)
            next[c & newMask] = cells[c & mask];
        cells.swap(next);
        mask = newMask;
        base = newBase;
    }

    unsigned cap;
    std::vector<uint32_t> cells; ///< exists_bit | 31-bit unit count
    size_t mask = 0;
    Cycle base = 0;    ///< cycle addressed by window start
    Cycle hiCycle = 0; ///< one past the highest existing cell
    Cycle minExist = 0; ///< lower bound on the lowest existing cell
    size_t entries = 0; ///< live entry count (reference map size())
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_RESOURCE_HH
