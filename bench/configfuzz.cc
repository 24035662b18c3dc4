/**
 * @file
 * Config-fuzz harness: does the hardened simulator actually survive
 * arbitrary machine configs?
 *
 * A seeded random-config generator produces five strata and runs each
 * against a small kernel set under the crash-safe process pool:
 *
 *   valid       randomized but admissible machines        -> ok
 *   boundary    extreme-but-valid shapes (all-unlimited,
 *               all-minimum, cap-edge latencies/widths,
 *               one-set caches)                           -> ok
 *   degenerate  deliberately broken (zero geometry, 0-cycle
 *               units, inverted latencies, unsatisfiable FU
 *               pools, allocation bombs)                  -> rejected
 *   nonpow2     valid except non-power-of-two predictor /
 *               TLB entry counts                          -> ok
 *               (canonicalization rounds them down)
 *   watchdog    admission disabled + unsatisfiable MULQ
 *               pool on a multiply-bearing kernel         -> stalled
 *               (the forward-progress watchdog converts
 *               the livelock into a typed trap)
 *
 * Every cell must land on its stratum's expected outcome: zero hangs
 * (a generous per-cell deadline is armed purely as a backstop — a
 * `timed_out` cell is a watchdog failure), zero crashes, zero untyped
 * errors. The bench exits nonzero on any deviation, so it doubles as
 * an end-to-end test in CI (sanitizer jobs run `configfuzz --quick`).
 *
 * Usage: configfuzz [--quick] [--seed=N] [common sweep flags]
 *   --quick   CI smoke mode: ~68 configs instead of the full 524.
 *   --seed=N  override the generator seed (default 0xC0F12).
 *
 * JSON shape (hand-rolled; this bench has verdicts, not SimStats):
 *
 *   {
 *     "bench": "configfuzz",
 *     "schema": 1,
 *     "mode": "full", "seed": N, "total_configs": N,
 *     "strata": [
 *       {"stratum": "valid", "configs": N, "expected": "ok",
 *        "outcomes": {"ok": N, ..., "rejected": N, "stalled": N},
 *        "mismatches": N, "passed": true}, ...
 *     ],
 *     "passed": true
 *   }
 */

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/validate.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using driver::CellOutcome;
using driver::SweepCell;
using driver::SweepOptions;
using driver::SweepResult;
using kernels::KernelVariant;
using sim::MachineConfig;
using util::Xorshift64;

/** A kernel for a fuzz cell; baseline IDEA/RC6 carry 64-bit MULQs. */
struct FuzzKernel
{
    crypto::CipherId cipher;
    KernelVariant variant;
};

const FuzzKernel generic_kernels[] = {
    {crypto::CipherId::RC4, KernelVariant::Optimized},
    {crypto::CipherId::Blowfish, KernelVariant::Optimized},
    {crypto::CipherId::IDEA, KernelVariant::BaselineRot},
};

const FuzzKernel mulq_kernels[] = {
    {crypto::CipherId::IDEA, KernelVariant::BaselineRot},
    {crypto::CipherId::RC6, KernelVariant::BaselineRot},
};

/** A randomized admissible machine: every field inside the envelope
 *  the validator accepts, power-of-two where indexing requires it. */
MachineConfig
randomValid(Xorshift64 &rng)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.fetchBlocksPerCycle = static_cast<unsigned>(rng.nextBelow(5));
    cfg.fetchWidth = static_cast<unsigned>(rng.nextBelow(17));
    cfg.perfectBranch = rng.nextBelow(2) != 0;
    cfg.mispredictPenalty = static_cast<unsigned>(rng.nextBelow(21));
    cfg.predictorEntries = 1u << (6 + rng.nextBelow(9));
    cfg.windowSize = rng.nextBelow(4) == 0
        ? sim::unlimited
        : 16u << rng.nextBelow(7);
    cfg.issueWidth = static_cast<unsigned>(rng.nextBelow(17));
    cfg.frontendDepth = static_cast<unsigned>(rng.nextBelow(6));
    cfg.numIntAlu = static_cast<unsigned>(rng.nextBelow(9));
    cfg.numRotUnits = static_cast<unsigned>(rng.nextBelow(7));
    // 1 is the unsatisfiable pool; the valid stratum stays clear.
    static const unsigned mul_pools[] = {0, 2, 3, 4, 8};
    cfg.mulHalfSlots = mul_pools[rng.nextBelow(5)];
    cfg.numDCachePorts = static_cast<unsigned>(rng.nextBelow(5));
    cfg.numSboxCaches = static_cast<unsigned>(rng.nextBelow(5));
    cfg.sboxCachePorts = 1 + static_cast<unsigned>(rng.nextBelow(2));
    cfg.perfectSbox = rng.nextBelow(2) != 0;

    cfg.aluLat = 1 + static_cast<unsigned>(rng.nextBelow(3));
    cfg.rotLat = 1 + static_cast<unsigned>(rng.nextBelow(3));
    cfg.mulLat32 = 1 + static_cast<unsigned>(rng.nextBelow(6));
    cfg.mulLat64 = cfg.mulLat32 + static_cast<unsigned>(rng.nextBelow(6));
    cfg.mulmodLat = 1 + static_cast<unsigned>(rng.nextBelow(8));
    cfg.loadLat = 1 + static_cast<unsigned>(rng.nextBelow(5));
    cfg.sboxOnDcacheLat = 1 + static_cast<unsigned>(rng.nextBelow(4));
    cfg.sboxCacheLat = 1 + static_cast<unsigned>(rng.nextBelow(3));

    cfg.perfectMemory = rng.nextBelow(2) != 0;
    cfg.perfectAlias = rng.nextBelow(2) != 0;
    const uint32_t l1Block = 16u << rng.nextBelow(3);
    const uint32_t l1Assoc = 1u << rng.nextBelow(4);
    const uint32_t l1Sets = 1u << (2 + rng.nextBelow(7));
    cfg.l1d = {l1Block * l1Assoc * l1Sets, l1Assoc, l1Block};
    const uint32_t l2Block = 32u << rng.nextBelow(2);
    const uint32_t l2Assoc = 1u << rng.nextBelow(4);
    const uint32_t l2Sets = 1u << (4 + rng.nextBelow(8));
    cfg.l2 = {l2Block * l2Assoc * l2Sets, l2Assoc, l2Block};
    cfg.l2HitLat = 1 + static_cast<unsigned>(rng.nextBelow(30));
    cfg.memLat = cfg.l2HitLat + static_cast<unsigned>(rng.nextBelow(200));
    cfg.nextLinePrefetch = rng.nextBelow(2) != 0;
    cfg.dtlbAssoc = 1u << rng.nextBelow(4);
    cfg.dtlbEntries = cfg.dtlbAssoc << rng.nextBelow(5);
    cfg.pageBytes = 1u << (12 + rng.nextBelow(4));
    cfg.dtlbMissLat = 1 + static_cast<unsigned>(rng.nextBelow(60));
    return cfg;
}

/** Extreme-but-valid shapes, cycled by index with randomized fill. */
MachineConfig
boundaryConfig(Xorshift64 &rng, size_t i)
{
    MachineConfig cfg = randomValid(rng);
    switch (i % 5) {
      case 0:
        // All-unlimited: every resource 0, perfect everything.
        cfg.fetchBlocksPerCycle = cfg.fetchWidth = sim::unlimited;
        cfg.windowSize = cfg.issueWidth = sim::unlimited;
        cfg.numIntAlu = cfg.numRotUnits = sim::unlimited;
        cfg.mulHalfSlots = cfg.numDCachePorts = sim::unlimited;
        cfg.perfectBranch = cfg.perfectMemory = cfg.perfectAlias = true;
        cfg.perfectSbox = true;
        break;
      case 1:
        // All-minimum: the narrowest machine that can still make
        // progress (mulHalfSlots 2 is the smallest satisfiable pool).
        cfg.fetchBlocksPerCycle = cfg.fetchWidth = 1;
        cfg.windowSize = 4;
        cfg.issueWidth = 1;
        cfg.numIntAlu = cfg.numRotUnits = 1;
        cfg.mulHalfSlots = 2;
        cfg.numDCachePorts = 1;
        cfg.numSboxCaches = 0;
        cfg.predictorEntries = 1;
        cfg.l1d = {32, 1, 32};
        cfg.l2 = {64, 1, 32};
        cfg.dtlbEntries = cfg.dtlbAssoc = 1;
        break;
      case 2:
        // Cap-edge latencies: the slowest machine the validator admits.
        cfg.aluLat = cfg.rotLat = 1u << 12;
        cfg.mulLat64 = cfg.mulLat32 = 1u << 12;
        cfg.mulmodLat = cfg.loadLat = 1u << 12;
        cfg.sboxOnDcacheLat = cfg.sboxCacheLat = 1u << 12;
        cfg.l2HitLat = cfg.memLat = 1u << 12;
        cfg.mispredictPenalty = 1u << 12;
        cfg.dtlbMissLat = 1u << 12;
        break;
      case 3:
        // Cap-edge widths: max_width everywhere (practically
        // unlimited, but through the limited-resource code path).
        cfg.fetchWidth = cfg.issueWidth = 1u << 16;
        cfg.numIntAlu = cfg.numRotUnits = 1u << 16;
        cfg.mulHalfSlots = cfg.numDCachePorts = 1u << 16;
        break;
      default:
        // Large-but-capped structures: a million-line L2, a huge
        // predictor, the biggest admissible TLB product.
        cfg.l2 = {1u << 25, 1, 32}; // 2^20 lines
        cfg.predictorEntries = 1u << 20;
        cfg.pageBytes = 1u << 15;
        cfg.dtlbAssoc = 4;
        cfg.dtlbEntries = 1u << 12;
        break;
    }
    return cfg;
}

/** One deliberate break per config, cycled over the taxonomy. */
MachineConfig
degenerateConfig(Xorshift64 &rng, size_t i)
{
    MachineConfig cfg = randomValid(rng);
    switch (i % 12) {
      case 0: cfg.l1d.blockBytes = 0; break;
      case 1: cfg.l1d = {96, 2, 32}; break; // not a multiple of one set
      case 2: cfg.predictorEntries = 0; break;
      case 3: cfg.aluLat = 0; break;
      case 4: cfg.mulLat64 = 3; cfg.mulLat32 = 9; break;
      case 5: cfg.l2HitLat = 50; cfg.memLat = 10; break;
      case 6: cfg.mulHalfSlots = 1; break; // the livelock pool
      case 7: cfg.l2 = {1u << 31, 1, 32}; break; // 2^26-line bomb
      case 8: cfg.pageBytes = 0; break;
      case 9: cfg.dtlbAssoc = 0; break;
      case 10: cfg.windowSize = (1u << 24) + 1; break;
      default:
        // TLB entries * pageBytes past the 2 GiB backing cap.
        cfg.dtlbAssoc = 4;
        cfg.dtlbEntries = 1u << 16;
        cfg.pageBytes = 1u << 20;
        break;
    }
    return cfg;
}

/** Valid except a non-pow2 count canonicalization must repair. */
MachineConfig
nonPow2Config(Xorshift64 &rng, size_t i)
{
    MachineConfig cfg = randomValid(rng);
    // A value strictly between two powers of two (never pow2 itself).
    auto offPow2 = [&](unsigned lgLo, unsigned lgHi) {
        const unsigned lg = lgLo + static_cast<unsigned>(
            rng.nextBelow(lgHi - lgLo));
        return (1u << lg) + 1
            + static_cast<unsigned>(rng.nextBelow((1u << lg) - 1));
    };
    if (i % 2 == 0) {
        cfg.predictorEntries = offPow2(6, 14);
    } else {
        // Assoc 1 so the rounded-down entry count stays divisible.
        cfg.dtlbAssoc = 1;
        cfg.dtlbEntries = offPow2(4, 10);
    }
    return cfg;
}

/** The livelock shape the watchdog stratum feeds past admission. */
MachineConfig
watchdogConfig(Xorshift64 &rng)
{
    MachineConfig cfg = randomValid(rng);
    cfg.mulHalfSlots = 1;
    return cfg;
}

struct StratumVerdict
{
    std::string name;
    std::string expected;
    size_t configs = 0;
    std::array<uint64_t, driver::num_cell_outcomes> outcomes{};
    size_t mismatches = 0;
    bool passed = false;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace cryptarch::bench;

    bool quick = false;
    uint64_t seed = 0xC0F12;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;
        else if (!std::strncmp(argv[i], "--seed=", 7))
            seed = wholeNumberFlag(argv[0], "--seed", argv[i] + 7);
    }

    // The fuzz sweeps must not inherit an outer chaos hook or a
    // tightened progress budget.
    ::unsetenv("CRYPTARCH_SWEEP_CHAOS");
    sim::setProgressBudgetOverride(0);

    // Process isolation by default, and a pure-backstop deadline: with
    // the watchdog working no cell comes near it, and a cell that does
    // is reaped as `timed_out` — which no stratum expects, so a hang
    // can never pass. Both stay overridable by flag.
    SweepOptions defaults;
    defaults.isolation = driver::SweepIsolation::Process;
    defaults.cellDeadlineSeconds = 120;
    SweepOptions opts = sweepOptions(argc, argv, defaults);
    // A journal is bound to one grid and each stratum is its own grid,
    // so one path would be rejected and rewritten stratum by stratum.
    opts.journalPath.clear();

    const size_t sessionBytes = 512;
    struct StratumPlan
    {
        const char *name;
        size_t count;
        CellOutcome expected;
        bool mulqKernels;
        bool disableValidation;
    };
    const StratumPlan plan[] = {
        {"valid", quick ? 20u : 160u, CellOutcome::Ok, false, false},
        {"boundary", quick ? 12u : 120u, CellOutcome::Ok, false, false},
        {"degenerate", quick ? 24u : 160u, CellOutcome::Rejected, false,
         false},
        {"nonpow2", quick ? 8u : 60u, CellOutcome::Ok, false, false},
        {"watchdog", quick ? 4u : 24u, CellOutcome::Stalled, true, true},
    };

    size_t totalConfigs = 0;
    for (const auto &s : plan)
        totalConfigs += s.count;
    std::printf("Config-fuzz harness (%s mode): %zu configs across %zu "
                "strata, seed 0x%llx,\n%s isolation, %.0f s cell "
                "backstop.\n\n",
                quick ? "quick" : "full", totalConfigs,
                std::size(plan), static_cast<unsigned long long>(seed),
                opts.isolation == driver::SweepIsolation::Process
                    ? "process"
                    : "thread",
                opts.cellDeadlineSeconds);

    std::vector<StratumVerdict> verdicts;
    bool allPassed = true;

    for (size_t s = 0; s < std::size(plan); s++) {
        const StratumPlan &stratum = plan[s];
        Xorshift64 rng(seed + s * 0x9E37u);

        std::vector<SweepCell> cells;
        cells.reserve(stratum.count);
        for (size_t i = 0; i < stratum.count; i++) {
            MachineConfig cfg;
            if (!std::strcmp(stratum.name, "valid"))
                cfg = randomValid(rng);
            else if (!std::strcmp(stratum.name, "boundary"))
                cfg = boundaryConfig(rng, i);
            else if (!std::strcmp(stratum.name, "degenerate"))
                cfg = degenerateConfig(rng, i);
            else if (!std::strcmp(stratum.name, "nonpow2"))
                cfg = nonPow2Config(rng, i);
            else
                cfg = watchdogConfig(rng);
            char name[32];
            std::snprintf(name, sizeof(name), "fz-%s-%03zu",
                          stratum.name, i);
            cfg.name = name;
            const FuzzKernel &k = stratum.mulqKernels
                ? mulq_kernels[i % std::size(mulq_kernels)]
                : generic_kernels[i % std::size(generic_kernels)];
            cells.push_back({k.cipher, k.variant, cfg, sessionBytes});
        }

        if (stratum.disableValidation)
            sim::setConfigValidation(false);
        auto results = driver::runCells(cells, opts);
        if (stratum.disableValidation)
            sim::setConfigValidation(true);

        StratumVerdict v;
        v.name = stratum.name;
        v.expected = driver::cellOutcomeName(stratum.expected);
        v.configs = cells.size();
        for (const auto &r : results) {
            v.outcomes[static_cast<size_t>(r.outcome)]++;
            if (r.outcome != stratum.expected) {
                v.mismatches++;
                std::fprintf(stderr,
                             "MISMATCH %s: (%s, %s, %s) expected %s, "
                             "got %s: %s\n",
                             stratum.name,
                             crypto::cipherInfo(r.cipher).name.c_str(),
                             kernels::variantName(r.variant).c_str(),
                             r.model.c_str(), v.expected.c_str(),
                             driver::cellOutcomeName(r.outcome),
                             r.message.c_str());
            }
        }
        v.passed = v.mismatches == 0;
        allPassed = allPassed && v.passed;
        verdicts.push_back(v);
    }

    std::printf("%-12s %8s %10s %22s %10s %7s\n", "Stratum", "configs",
                "expected", "outcomes(ok/rej/stall)", "mismatch",
                "result");
    std::printf("%.74s\n",
                "----------------------------------------------------"
                "----------------------");
    for (const auto &v : verdicts) {
        const auto ok = v.outcomes[static_cast<size_t>(CellOutcome::Ok)];
        const auto rej =
            v.outcomes[static_cast<size_t>(CellOutcome::Rejected)];
        const auto stall =
            v.outcomes[static_cast<size_t>(CellOutcome::Stalled)];
        char triple[32];
        std::snprintf(triple, sizeof(triple), "%llu/%llu/%llu",
                      static_cast<unsigned long long>(ok),
                      static_cast<unsigned long long>(rej),
                      static_cast<unsigned long long>(stall));
        std::printf("%-12s %8zu %10s %22s %10zu %7s\n", v.name.c_str(),
                    v.configs, v.expected.c_str(), triple, v.mismatches,
                    v.passed ? "PASS" : "FAIL");
    }

    std::ofstream out("BENCH_configfuzz.json");
    if (!out)
        throw std::runtime_error("cannot write BENCH_configfuzz.json");
    out << "{\n  \"bench\": \"configfuzz\",\n  \"schema\": 1,\n"
        << "  \"mode\": \"" << (quick ? "quick" : "full")
        << "\", \"seed\": " << seed
        << ", \"total_configs\": " << totalConfigs << ",\n"
        << "  \"strata\": [\n";
    for (size_t i = 0; i < verdicts.size(); i++) {
        const auto &v = verdicts[i];
        out << "    {\"stratum\": \"" << v.name << "\", \"configs\": "
            << v.configs << ", \"expected\": \"" << v.expected
            << "\",\n     \"outcomes\": {";
        for (size_t o = 0; o < driver::num_cell_outcomes; o++)
            out << (o ? ", " : "") << "\""
                << driver::cellOutcomeName(
                       static_cast<CellOutcome>(o))
                << "\": " << v.outcomes[o];
        out << "},\n     \"mismatches\": " << v.mismatches
            << ", \"passed\": " << (v.passed ? "true" : "false") << "}"
            << (i + 1 < verdicts.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"passed\": " << (allPassed ? "true" : "false")
        << "\n}\n";
    if (!out.flush())
        throw std::runtime_error("failed writing BENCH_configfuzz.json");

    std::printf("\n(Stratum verdicts: BENCH_configfuzz.json. Every cell "
                "must land on its\nstratum's expected outcome — zero "
                "hangs, zero crashes, zero untyped errors.)\n");
    return allPassed ? 0 : 1;
}
