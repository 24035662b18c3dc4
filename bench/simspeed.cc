/**
 * @file
 * Simulator self-benchmark: host-side replay throughput in simulated
 * MIPS and trace footprint per model, for representative (cipher,
 * variant, model) cells. This is the perf trajectory every hot-path
 * PR is judged against — the numbers say how fast the timing model
 * itself runs, not how fast the simulated machine is.
 *
 * For each kernel the trace is recorded once, then replayed into each
 * model repeatedly until a minimum wall-clock budget is filled:
 *
 *   simulated MIPS = instructions * reps / replay_seconds / 1e6
 *
 * Recording cost is split by phase (setup / record / verify) using the
 * driver's RecordTiming, so the record/replay attribution in the
 * artifact is honest: the record-time oracle is reported as its own
 * field instead of inflating record_seconds.
 *
 * Trace footprint is reported two ways: the packed bytes actually
 * stored and the raw DynInst bytes. Results go to BENCH_simspeed.json
 * (with host-timing extras per result).
 *
 * Usage: simspeed [--quick]
 *   --quick  CI smoke mode: fewer cells, smaller time budget.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "driver/json.hh"
#include "sim/config.hh"

namespace
{

using namespace cryptarch;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; i++)
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;

    // Full mode covers the entire tab02 cipher grid, so the record
    // column is measured over exactly the workload population the
    // tab02 artifact records. Quick mode keeps
    // two representative corners: a stream cipher dominated by byte
    // traffic and alias ordering (RC4) and the SBOX-heavy block cipher
    // the paper optimizes hardest (Rijndael).
    std::vector<crypto::CipherId> ciphers;
    if (quick) {
        ciphers = {crypto::CipherId::RC4, crypto::CipherId::Rijndael};
    } else {
        for (const auto &info : crypto::cipherCatalog())
            ciphers.push_back(info.id);
    }
    // DF+Res is in both modes: unlimited issue with 4W's unit pools is
    // the one model whose replay is dominated by the scheduler's
    // functional-unit search. Full mode adds the other Figure 5
    // isolation models.
    const std::vector<sim::MachineConfig> models =
        quick ? std::vector<sim::MachineConfig>{
                    sim::MachineConfig::fourWide(),
                    sim::MachineConfig::fourWidePlus(),
                    sim::MachineConfig::dataflow(),
                    sim::MachineConfig::dfPlusResources()}
              : std::vector<sim::MachineConfig>{
                    sim::MachineConfig::fourWide(),
                    sim::MachineConfig::fourWidePlus(),
                    sim::MachineConfig::eightWidePlus(),
                    sim::MachineConfig::dataflow(),
                    sim::MachineConfig::dfPlusAlias(),
                    sim::MachineConfig::dfPlusBranch(),
                    sim::MachineConfig::dfPlusIssue(),
                    sim::MachineConfig::dfPlusMem(),
                    sim::MachineConfig::dfPlusResources(),
                    sim::MachineConfig::dfPlusWindow()};
    const auto variant = kernels::KernelVariant::Optimized;
    const double minReplaySeconds = quick ? 0.02 : 0.25;
    const int maxReps = quick ? 4 : 64;

    std::vector<driver::SweepResult> results;
    std::vector<std::string> extras;
    size_t totalStored = 0;
    size_t totalRaw = 0;

    std::printf("Simulator self-benchmark (%s mode)\n\n",
                quick ? "quick" : "full");
    std::printf("%-10s %-10s %-9s %12s %8s %10s %10s %12s\n", "Cipher",
                "Variant", "Model", "insts", "reps", "sim-MIPS",
                "record-ms", "trace-bytes");

    for (auto id : ciphers) {
        // An untimed warm-up recording first, so the timed one sees
        // warm caches and allocator state, as every recording after a
        // process's first does.
        driver::recordKernelTrace(id, variant, driver::session_bytes,
                                  kernels::KernelDirection::Encrypt);
        driver::RecordTiming timing = {};
        auto trace = driver::recordKernelTrace(
            id, variant, driver::session_bytes,
            kernels::KernelDirection::Encrypt, &timing);
        const uint64_t insts = trace.instructions();
        const size_t storedBytes = trace.storedBytes();
        const size_t rawBytes = insts * sizeof(isa::DynInst);
        totalStored += storedBytes;
        totalRaw += rawBytes;

        for (const auto &model : models) {
            sim::SimStats stats;
            int reps = 0;
            auto r0 = Clock::now();
            double elapsed = 0.0;
            do {
                stats = trace.replay(model);
                reps++;
                elapsed = seconds(r0, Clock::now());
            } while (elapsed < minReplaySeconds && reps < maxReps);
            const double mips =
                static_cast<double>(insts) * reps / elapsed / 1e6;

            driver::SweepResult res;
            res.cipher = id;
            res.variant = variant;
            res.model = model.name;
            res.bytes = driver::session_bytes;
            res.stats = stats;
            results.push_back(res);

            char extra[512];
            std::snprintf(
                extra, sizeof(extra),
                "\"simulated_mips\": %.2f, \"replay_reps\": %d, "
                "\"replay_seconds\": %.6f, \"setup_seconds\": %.6f, "
                "\"record_seconds\": %.6f, \"verify_seconds\": %.6f, "
                "\"trace_stored_bytes\": %zu, "
                "\"trace_dyninst_bytes\": %zu, "
                "\"stored_bytes_per_inst\": %.4f",
                mips, reps, elapsed, timing.setupSeconds,
                timing.recordSeconds, timing.verifySeconds, storedBytes,
                rawBytes,
                insts ? static_cast<double>(storedBytes) / insts : 0.0);
            extras.push_back(extra);

            std::printf("%-10s %-10s %-9s %12llu %8d %10.2f %10.3f %12zu\n",
                        crypto::cipherInfo(id).name.c_str(),
                        kernels::variantName(variant).c_str(),
                        model.name.c_str(),
                        static_cast<unsigned long long>(insts), reps, mips,
                        timing.recordSeconds * 1e3, storedBytes);
        }
    }

    driver::writeBenchJson("BENCH_simspeed.json", "simspeed", results,
                           extras);
    std::printf("\n(Host timing per cell: BENCH_simspeed.json; %zu "
                "cells; packed traces %.1fx smaller than raw DynInst "
                "records.)\n",
                results.size(),
                totalStored ? static_cast<double>(totalRaw) / totalStored
                            : 1.0);
    return 0;
}
