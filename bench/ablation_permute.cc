/**
 * @file
 * Ablation: 3DES general-permutation strategies.
 *
 * The paper's XBOX does a 32-bit permutation in 7 instructions; Shi &
 * Lee's GRP (related work, "we are currently enhancing our tools to
 * use [it]") needs 5 — but the GRP steps are serially dependent while
 * XBOX's partial permutations are independent and OR-reduce. The
 * paper predicts a small end-to-end difference since 3DES only
 * permutes at block entry/exit; this bench quantifies it.
 *
 * Runs through the bench driver (one functional pass per variant);
 * stats: BENCH_ablation_permute.json.
 */

#include <cstdio>

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace cryptarch;
    using namespace cryptarch::bench;
    using kernels::KernelVariant;
    using sim::MachineConfig;

    const crypto::CipherId id = crypto::CipherId::TripleDES;
    struct Row
    {
        const char *label;
        KernelVariant variant;
    } rows[] = {
        {"swap network (baseline)", KernelVariant::BaselineRot},
        {"XBOX (paper)", KernelVariant::Optimized},
        {"GRP  (Shi & Lee)", KernelVariant::OptimizedGrp},
    };

    driver::SweepSpec spec;
    spec.ciphers = {id};
    spec.variants = {KernelVariant::BaselineRot, KernelVariant::Optimized,
                     KernelVariant::OptimizedGrp};
    spec.models = {MachineConfig::fourWide()};
    auto results = driver::runSweep(spec, sweepOptions(argc, argv));

    std::printf("Ablation: 3DES permutation strategy "
                "(4KB session, 4W machine).\n\n");
    std::printf("%-26s %12s %12s %12s\n", "Strategy", "static insts",
                "cycles", "B/kcycle");
    std::printf("%.66s\n",
                "----------------------------------------------------"
                "--------------");
    for (const auto &row : rows) {
        // Static program size comes from the kernel builder (cheap; no
        // functional interpretation involved).
        Workload w = makeWorkload(id);
        auto build = kernels::buildKernel(id, row.variant, w.key, w.iv,
                                          session_bytes);
        const auto &r = driver::findResult(results, id, row.variant, "4W");
        std::printf("%-26s %12zu %12s %12s\n", row.label,
                    build.program.size(),
                    gridCell(r.ok(), "%.0f",
                             static_cast<double>(r.stats.cycles))
                        .c_str(),
                    gridCell(r.ok(), "%.2f",
                             bytesPerKiloCycle(r.stats.cycles, r.bytes))
                        .c_str());
    }

    driver::writeBenchJson("BENCH_ablation_permute.json",
                           "ablation_permute", results);
    std::printf("\n(GRP: 6 chained steps per 64-bit permutation vs "
                "XBOX's 8 parallel\npartials + OR tree; both run once "
                "per block, so throughput differences\nstay small — "
                "the paper's expectation. Stats: "
                "BENCH_ablation_permute.json.)\n");
    return reportFailedCells(results);
}
