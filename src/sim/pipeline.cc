#include "sim/pipeline.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "isa/trap.hh"

namespace cryptarch::sim
{

using isa::DynInst;
using isa::OpClass;

OooScheduler::OooScheduler(const MachineConfig &config, ConfigPolicy policy)
    : cfg(hardenedConfig(config, policy)), issueSlots(cfg.issueWidth),
      retireSlots(cfg.issueWidth),
      aluUnits(cfg.numIntAlu), rotUnits(cfg.numRotUnits),
      mulSlots(cfg.mulHalfSlots), dcachePorts(cfg.numDCachePorts),
      retireRing(cfg.windowSize ? cfg.windowSize : 1, 0),
      predictor(cfg.predictorEntries), memory(cfg)
{
    stats.model = cfg.name;
    // Forward-progress watchdog: the base FU-retry budget. A valid
    // config's issue retry loop is bounded by the booked backlog
    // (at most a few probes per in-flight instruction), so a budget
    // scaled from the window span plus the full latency chain — and
    // growing with the instruction index in issueOf, which covers the
    // legitimately linear backlog of the unlimited-window DF isolation
    // models — never fires on real machines, while an unsatisfiable
    // pool trips it within ~budget probes of the first blocked op.
    progressBudgetBase = progressBudgetOverride();
    if (progressBudgetBase == 0) {
        const uint64_t windowClamp =
            cfg.windowSize != unlimited ? cfg.windowSize : 4096;
        const uint64_t latChain = cfg.aluLat + cfg.rotLat + cfg.mulLat64
            + cfg.mulLat32 + cfg.mulmodLat + cfg.loadLat
            + cfg.sboxOnDcacheLat + cfg.sboxCacheLat + cfg.l2HitLat
            + cfg.memLat + cfg.dtlbMissLat + cfg.mispredictPenalty;
        progressBudgetBase = 4096 + 64 * windowClamp + 16 * latChain;
    }
    auditing = simAuditEnabled();
    if (!cfg.perfectSbox && cfg.numSboxCaches > 0) {
        sboxCaches.resize(cfg.numSboxCaches);
        for (unsigned i = 0; i < cfg.numSboxCaches; i++)
            sboxPorts.emplace_back(cfg.sboxCachePorts);
        // Table-to-cache selection runs per SBOX read; for the usual
        // power-of-two cache counts replace the modulo with a mask.
        if ((cfg.numSboxCaches & (cfg.numSboxCaches - 1)) == 0)
            sboxIndexMask = cfg.numSboxCaches - 1;
    }
}

Cycle
OooScheduler::fetchOf(const DynInst &inst)
{
    (void)inst;
    if (nextCycleFetch) {
        fetchCycle++;
        fetchedThisCycle = 0;
        blocksThisCycle = 0;
        nextCycleFetch = false;
    }
    if (cfg.fetchWidth != unlimited
        && fetchedThisCycle >= cfg.fetchWidth) {
        fetchCycle++;
        fetchedThisCycle = 0;
        blocksThisCycle = 0;
    }
    fetchedThisCycle++;
    return fetchCycle;
}

Cycle
OooScheduler::issueOf(const DynInst &inst, Cycle ready, unsigned &lat,
                      unsigned &memExtra, StallVector &stall,
                      unsigned &touched)
{
    // Select the operation's functional unit pool, unit count, base
    // latency, and the stall cause its contention is charged to.
    CycleResource *fu = nullptr;
    unsigned units = 1;
    lat = cfg.aluLat;
    memExtra = 0;
    StallCause fuCause = StallCause::FuAlu;

    switch (inst.cls) {
      case OpClass::Nop:
        lat = 0;
        break;
      case OpClass::Control:
      case OpClass::IntAlu:
        fu = &aluUnits;
        lat = cfg.aluLat;
        break;
      case OpClass::RotUnit:
        fu = &rotUnits;
        fuCause = StallCause::FuRot;
        lat = cfg.rotLat;
        break;
      case OpClass::IntMult:
        fu = &mulSlots;
        fuCause = StallCause::FuMul;
        units = 2;
        lat = cfg.mulLat64;
        break;
      case OpClass::IntMult32:
        fu = &mulSlots;
        fuCause = StallCause::FuMul;
        units = 1;
        lat = cfg.mulLat32;
        break;
      case OpClass::MulMod:
        fu = &mulSlots;
        fuCause = StallCause::FuMul;
        units = 1;
        lat = cfg.mulmodLat;
        break;
      case OpClass::Load:
        fu = &dcachePorts;
        fuCause = StallCause::FuDcache;
        // Aliased SBOX accesses are loads with optimized address
        // generation (2 cycles); ordinary loads take the full path.
        lat = (inst.op == isa::Opcode::Sbox) ? cfg.sboxOnDcacheLat
                                             : cfg.loadLat;
        memExtra = memory.access(inst.addr, inst.size);
        lat += memExtra;
        break;
      case OpClass::Store:
        fu = &dcachePorts;
        fuCause = StallCause::FuDcache;
        lat = 1;
        (void)memory.access(inst.addr, inst.size);
        break;
      case OpClass::SboxRead: {
        if (cfg.perfectSbox) {
            // Dataflow-style machine: 1-cycle SBox, no port pressure.
            lat = cfg.sboxCacheLat;
            fu = nullptr;
        } else if (!sboxCaches.empty()) {
            unsigned which = sboxIndexMask
                ? inst.tableId & sboxIndexMask
                : inst.tableId % static_cast<unsigned>(sboxCaches.size());
            bool hit = sboxCaches[which].access(inst.addr & ~0x3FFull,
                                                inst.addr & 0x3FF);
            if (hit) {
                stats.sboxCacheHits++;
                lat = cfg.sboxCacheLat;
            } else {
                // Demand-fetch the sector from the D-cache.
                memExtra = memory.access(inst.addr, inst.size);
                lat = cfg.sboxCacheLat + cfg.sboxOnDcacheLat + memExtra;
            }
            fu = &sboxPorts[which];
            fuCause = StallCause::FuSbox;
        } else {
            // SBOX shares D-cache ports (the 4W configuration).
            memExtra = memory.access(inst.addr, inst.size);
            lat = cfg.sboxOnDcacheLat + memExtra;
            fu = &dcachePorts;
            fuCause = StallCause::FuDcache;
        }
        break;
      }
      case OpClass::SboxSync:
        lat = 1;
        for (auto &sc : sboxCaches)
            sc.sync();
        break;
    }

    // Find the first cycle with both an issue slot and a unit. Both
    // are reserved jointly; every cycle that loses the race is charged
    // to the constraint that lost it (the issue slot first — without
    // one the unit is unreachable regardless). nextFree() walks the
    // issue ring directly, so a run of slot-full cycles costs one
    // array scan instead of a lookup per losing cycle.
    // With unlimited issue slots (the DF family) a lost cycle is lost
    // to the unit alone and the slot side has nothing to book, so after
    // a failed booking the run of full unit cycles that follows is
    // skipped in one read-only firstFit() scan and charged to fuWait
    // as a block. Full cells are existing entries, so skipping them
    // instead of probing each changes no resource bookkeeping (DESIGN
    // §8). Limited-issue machines keep the per-cycle walk, since there
    // each retry also probes the slot ring; unsatisfiable pools
    // (units > capacity) keep it too, so the watchdog below trips.
    // The two causes this loop can charge accumulate in locals and
    // are stored once on exit: every stall slot is written at most
    // once per instruction, which is what lets emit() leave the
    // vector uninitialized outside recorded-timeline windows.
    Cycle cycle = ready;
    uint64_t slotWait = 0;
    uint64_t fuWait = 0;
    Cycle slotAt;
    while (true) {
        slotAt = issueSlots.nextFree(cycle);
        slotWait += slotAt - cycle;
        issueSlots.bookProbed(slotAt);
        if (!fu || fu->tryBook(slotAt, units))
            break;
        issueSlots.unbook(slotAt);
        fuWait++;
        // Forward-progress watchdog: fuWait counts exactly the failed
        // unit bookings, so the uncontended path pays nothing and a
        // contended retry pays one compare. An unsatisfiable pool
        // (units can never fit the capacity) turns into a typed trap
        // instead of an infinite loop.
        const uint64_t budget = progressBudgetBase + 8 * instIndex;
        if (fuWait > budget) [[unlikely]]
            throwNoProgress(inst, ready, slotAt, fuCause, slotWait,
                            fuWait);
        cycle = slotAt + 1;
        if (!issueSlots.limited() && units <= fu->capacity()) {
            const Cycle fit = fu->firstFit(cycle, units);
            // Every cycle from ready on was a failed booking, so the
            // per-cycle walk would trip at cycle ready + budget with
            // budget + 1 failures: report exactly that.
            if (fuWait + (fit - cycle) > budget) [[unlikely]]
                throwNoProgress(inst, ready, ready + budget, fuCause,
                                slotWait, budget + 1);
            fuWait += fit - cycle;
            cycle = fit;
        }
    }
    if (slotWait) {
        stall[static_cast<size_t>(StallCause::IssueSlot)] = slotWait;
        touched |= 1u << static_cast<size_t>(StallCause::IssueSlot);
    }
    if (fuWait) {
        stall[static_cast<size_t>(fuCause)] = fuWait;
        touched |= 1u << static_cast<size_t>(fuCause);
    }
    return slotAt;
}

void
OooScheduler::pruneResources(Cycle horizon)
{
    issueSlots.retireBefore(horizon);
    retireSlots.retireBefore(horizon);
    aluUnits.retireBefore(horizon);
    rotUnits.retireBefore(horizon);
    mulSlots.retireBefore(horizon);
    dcachePorts.retireBefore(horizon);
    for (auto &p : sboxPorts)
        p.retireBefore(horizon);
}

void
OooScheduler::throwNoProgress(const DynInst &inst, Cycle ready,
                              Cycle probed, StallCause fuCause,
                              uint64_t slotWait, uint64_t fuWait) const
{
    // The stalled-frontier snapshot: the oldest un-issued instruction
    // and the constraint blocking it, so a `stalled` sweep cell is
    // diagnosable from the message alone.
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "scheduler made no forward progress on model '%s': seq=%llu "
        "pc=%u class=%s blocked on %s (ready cycle %llu, probed through "
        "cycle %llu: %llu failed unit bookings, %llu issue-slot wait "
        "cycles; base budget %llu, CRYPTARCH_SIM_PROGRESS_BUDGET "
        "overrides)",
        cfg.name.c_str(), static_cast<unsigned long long>(inst.seq),
        static_cast<unsigned>(inst.pc), isa::opClassName(inst.cls),
        stallCauseName(fuCause), static_cast<unsigned long long>(ready),
        static_cast<unsigned long long>(probed),
        static_cast<unsigned long long>(fuWait),
        static_cast<unsigned long long>(slotWait),
        static_cast<unsigned long long>(progressBudgetBase));
    throw isa::Trap(isa::TrapCause::NoProgress, buf);
}

void
OooScheduler::auditRetired(const DynInst &inst, Cycle fetch,
                           Cycle dispatch, Cycle ready, Cycle issue,
                           Cycle complete, Cycle retire,
                           const StallVector &stall) const
{
    auto fail = [&](const char *invariant, const std::string &detail) {
        throw AuditError(invariant, inst.seq, inst.pc, detail);
    };
    if (fetch > dispatch || dispatch > ready || ready > issue
        || issue > complete || complete > retire)
        fail("event-order",
             "fetch=" + std::to_string(fetch) + " dispatch="
                 + std::to_string(dispatch) + " ready="
                 + std::to_string(ready) + " issue="
                 + std::to_string(issue) + " complete="
                 + std::to_string(complete) + " retire="
                 + std::to_string(retire)
                 + " violates fetch<=dispatch<=ready<=issue<=complete"
                   "<=retire");
    // Conservation: the dispatch-to-issue stall causes tile the
    // dispatch-to-issue span exactly — no cycle lost, none counted
    // twice (the exclusion semantics DESIGN.md documents).
    const uint64_t tiled = dispatchToIssueCycles(stall);
    if (tiled != issue - dispatch)
        fail("stall-tiling",
             "attributed " + std::to_string(tiled)
                 + " dispatch-to-issue cycles but issue-dispatch is "
                 + std::to_string(issue - dispatch));
    // Resource books never exceed capacity at the cycles this
    // instruction just booked.
    auto overbooked = [](const CycleResource &r, Cycle at) {
        return r.limited() && r.bookedAt(at) > r.capacity();
    };
    if (overbooked(issueSlots, issue))
        fail("issue-width",
             std::to_string(issueSlots.bookedAt(issue))
                 + " issue slots booked at cycle "
                 + std::to_string(issue) + " with width "
                 + std::to_string(issueSlots.capacity()));
    if (overbooked(retireSlots, retire))
        fail("retire-width",
             std::to_string(retireSlots.bookedAt(retire))
                 + " retire slots booked at cycle "
                 + std::to_string(retire) + " with width "
                 + std::to_string(retireSlots.capacity()));
    auto checkPool = [&](const CycleResource &fu) {
        if (overbooked(fu, issue))
            fail("fu-capacity",
                 "a functional-unit pool is overbooked at cycle "
                     + std::to_string(issue) + " ("
                     + std::to_string(fu.bookedAt(issue)) + " > "
                     + std::to_string(fu.capacity()) + ")");
    };
    for (const auto *fu : {&aluUnits, &rotUnits, &mulSlots, &dcachePorts})
        checkPool(*fu);
    for (const auto &ports : sboxPorts)
        checkPool(ports);
}

void
OooScheduler::emit(const DynInst &inst)
{
    stats.instructions++;
    stats.classCounts[static_cast<size_t>(inst.cls)]++;
    if (inst.isLoad)
        stats.loads++;
    if (inst.isStore)
        stats.stores++;
    if (inst.cls == OpClass::SboxRead)
        stats.sboxAccesses++;

    // ----- fetch -----
    Cycle fetch = fetchOf(inst);

    // Per-instruction stall breakdown, accumulated into SimStats and
    // (inside the recorded window) the timeline entry. `touched` keeps
    // one bit per cause that was charged; every charged slot is
    // written exactly once, so the vector itself stays uninitialized —
    // except when a timeline window is recording, whose entries copy
    // the whole array and need the untouched slots zeroed.
    StallVector stall;
    unsigned touched = 0;
    // The auditor reads the whole vector (tiling conservation), so it
    // needs the untouched slots zeroed just like timeline entries do.
    if (timelineCount || auditing)
        stall.fill(0);

    // ----- operand / ordering readiness constraints (raw) -----
    // Track each gating constraint separately so the binding one (the
    // max) can be charged with the wait it causes, and so the window
    // charge below can be limited to delay beyond ALL of them.
    Cycle readyOp = fetch + cfg.frontendDepth;
    unsigned bindMemExtra = 0;
    for (unsigned s = 0; s < inst.numSrcs; s++) {
        Cycle r = regReady[inst.srcs[s]];
        if (r > readyOp) {
            readyOp = r;
            bindMemExtra = regMemExtra[inst.srcs[s]];
        } else if (r == readyOp
                   && regMemExtra[inst.srcs[s]] > bindMemExtra) {
            bindMemExtra = regMemExtra[inst.srcs[s]];
        }
    }

    Cycle readyAlias = 0;
    Cycle readySync = 0;
    if (inst.isLoad && !cfg.perfectAlias
        && !(inst.cls == OpClass::SboxRead)) {
        // Loads may not issue until all earlier store addresses are
        // known. Non-aliased SBOX reads bypass the ordering queue.
        readyAlias = storeAddrFrontier;
    }
    if (inst.cls == OpClass::SboxRead) {
        // SBOX visibility is gated by the last SBOXSYNC.
        readySync = syncFrontier;
    }
    if (inst.cls == OpClass::SboxSync) {
        // A sync publishes all prior stores.
        readySync = storeDataFrontier;
    }

    // ----- dispatch: frontend depth + window occupancy -----
    Cycle dispatch = fetch + cfg.frontendDepth;
    if (pendingRedirectStall) {
        // The first instruction fetched after a misprediction redirect
        // absorbs the restart delay — but only the part not hidden
        // behind its other constraints. The decoupled frontend runs
        // arbitrarily far ahead of execution, so the raw fetchCycle
        // jump (back to the resolving branch's completion) mostly
        // re-covers ground the window and the dependences had already
        // claimed; the genuine bubble is the excess over all of them.
        Cycle covered = std::max({readyOp, readyAlias, readySync,
                                  lastDispatch});
        if (cfg.windowSize != unlimited)
            covered = std::max(covered, retireRing[ringPos]);
        if (dispatch > covered) {
            stall[static_cast<size_t>(StallCause::FetchRedirect)] =
                std::min<Cycle>(pendingRedirectStall, dispatch - covered);
            touched |=
                1u << static_cast<size_t>(StallCause::FetchRedirect);
        }
        pendingRedirectStall = 0;
    }
    if (cfg.windowSize != unlimited) {
        Cycle freed = retireRing[ringPos];
        if (freed > dispatch) {
            // Charge the window only for delay beyond every other
            // readiness constraint (an instruction held by the window
            // while its operands were not ready anyway lost nothing —
            // the overlap Figure 5's exclusion models also assign to
            // the dependence, not the window), and charge each
            // window-stalled dispatch cycle once, to the first
            // instruction blocked by it: dispatch is in order, so the
            // window holds back a *frontier*, and charging every
            // co-blocked instruction would scale the count with the
            // window size (the decoupled frontend fetches arbitrarily
            // far ahead) and drown every real cause.
            Cycle covered = std::max(
                {dispatch, readyOp, readyAlias, readySync, lastDispatch});
            if (freed > covered) {
                stall[static_cast<size_t>(StallCause::WindowFull)] =
                    freed - covered;
                touched |=
                    1u << static_cast<size_t>(StallCause::WindowFull);
            }
            dispatch = freed;
        }
    }
    lastDispatch = std::max(lastDispatch, dispatch);

    readyOp = std::max(readyOp, dispatch);
    readyAlias = std::max(readyAlias, dispatch);
    readySync = std::max(readySync, dispatch);
    Cycle ready = std::max({readyOp, readyAlias, readySync});
    if (Cycle wait = ready - dispatch) {
        // Charge the binding constraint. Ties favor the ordering
        // constraints (alias, then sync): they are the machine-imposed
        // serializations the paper's exclusion models isolate, and a
        // dependence that merely ties them would not have issued any
        // earlier without them either.
        if (readyAlias == ready && readyAlias > dispatch) {
            stall[static_cast<size_t>(StallCause::StoreAlias)] = wait;
            touched |= 1u << static_cast<size_t>(StallCause::StoreAlias);
        } else if (readySync == ready && readySync > dispatch) {
            stall[static_cast<size_t>(StallCause::SboxVisibility)] = wait;
            touched |=
                1u << static_cast<size_t>(StallCause::SboxVisibility);
        } else {
            // An operand wait; the part covered by the producer's
            // memory-hierarchy extra latency is the DF+Mem cost.
            uint64_t memPart = std::min<uint64_t>(wait, bindMemExtra);
            stall[static_cast<size_t>(StallCause::MemLatency)] = memPart;
            stall[static_cast<size_t>(StallCause::Operand)] =
                wait - memPart;
            // A zero slot here just adds 0 in the accumulation pass.
            touched |= 1u << static_cast<size_t>(StallCause::MemLatency)
                     | 1u << static_cast<size_t>(StallCause::Operand);
        }
    }

    // ----- issue + latency -----
    unsigned lat = 0;
    unsigned memExtra = 0;
    Cycle issue = issueOf(inst, ready, lat, memExtra, stall, touched);
    Cycle complete = issue + lat;
    maxComplete = std::max(maxComplete, complete);

    // Most instructions stall for at most one or two causes; walk the
    // touched-cause bits instead of all num_stall_causes slots.
    for (unsigned m = touched; m;) {
        unsigned c = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        stats.stallCycles[c] += stall[c];
        stats.stallByClass[static_cast<size_t>(inst.cls)][c] += stall[c];
    }

    // ----- side effects on global ordering state -----
    if (inst.isStore) {
        // The address generation micro-op only needs the base
        // register, so the address resolves before the data arrives
        // (split store handling, as in sim-outorder).
        Cycle addr_ready = std::max(dispatch,
                                    regReady[inst.addrSrc]) + 1;
        storeAddrFrontier = std::max(storeAddrFrontier,
                                     std::min(addr_ready, issue));
        storeDataFrontier = std::max(storeDataFrontier, complete);
    }
    if (inst.cls == OpClass::SboxSync)
        syncFrontier = complete;

    if (inst.branch) {
        bool correct = true;
        if (inst.op != isa::Opcode::Br) {
            stats.condBranches++;
            correct = predictor.predict(inst.pc, inst.taken);
            if (!correct)
                stats.mispredicts++;
        }
        if (!cfg.perfectBranch && !correct) {
            // Redirect: fetch resumes after resolution plus the
            // minimum misprediction penalty.
            Cycle redirected = std::max<Cycle>(
                fetchCycle, complete + cfg.mispredictPenalty);
            pendingRedirectStall += redirected - fetchCycle;
            fetchCycle = redirected;
            fetchedThisCycle = 0;
            blocksThisCycle = 0;
            nextCycleFetch = false;
        } else if (inst.taken
                   && cfg.fetchBlocksPerCycle != unlimited) {
            // A (predicted) taken branch terminates a fetch block.
            blocksThisCycle++;
            if (blocksThisCycle >= cfg.fetchBlocksPerCycle)
                nextCycleFetch = true;
        }
    }

    // ----- writeback -----
    if (inst.dest != isa::reg_zero.n) {
        regReady[inst.dest] = complete;
        regMemExtra[inst.dest] = memExtra;
    }

    // ----- retire (in order, retire-width per cycle) -----
    Cycle retire = std::max(complete, lastRetire);
    retire = retireSlots.reserve(retire);
    lastRetire = retire;

    if (auditing)
        auditRetired(inst, fetch, dispatch, ready, issue, complete,
                     retire, stall);

    // One unsigned compare covers both window bounds (seq below
    // timelineFirst wraps past any count).
    if (inst.seq - timelineFirst < timelineCount) {
        timeline.push_back({inst.seq, inst.pc, inst.op, fetch, dispatch,
                            ready, issue, complete, retire, stall});
    }
    // The ring cursor tracks instIndex % windowSize without paying a
    // division per instruction; slot ringPos holds the retire cycle
    // of instruction instIndex - windowSize (the window's oldest).
    if (cfg.windowSize != unlimited) {
        retireRing[ringPos] = retire;
        if (++ringPos == retireRing.size())
            ringPos = 0;
    }
    instIndex++;

    // Prune resource rings behind the retirement frontier.
    if ((instIndex & 0xFFF) == 0) {
        pruneResources(cfg.windowSize != unlimited ? retireRing[ringPos]
                                                   : lastRetire);
    }
}

SimStats
OooScheduler::finish()
{
    stats.cycles = std::max(lastRetire, maxComplete) + 1;
    stats.l1 = memory.l1Stats();
    stats.l2 = memory.l2Stats();
    stats.tlb = memory.tlbStats();
    // Merge per-SBox-cache accesses/misses; without this only the hit
    // count would survive and hit *rates* would be incomputable.
    stats.sboxCaches.clear();
    stats.sboxCacheAccesses = 0;
    stats.sboxCacheMisses = 0;
    for (const auto &sc : sboxCaches) {
        stats.sboxCaches.push_back(sc.stats());
        stats.sboxCacheAccesses += sc.stats().accesses;
        stats.sboxCacheMisses += sc.stats().misses;
    }
    return stats;
}

SimStats
simulate(isa::Machine &machine, const isa::Program &program,
         const MachineConfig &config, uint64_t max_insts,
         ConfigPolicy policy)
{
    OooScheduler sched(config, policy);
    machine.run(program, &sched, max_insts);
    return sched.finish();
}

} // namespace cryptarch::sim
