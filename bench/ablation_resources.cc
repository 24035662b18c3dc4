/**
 * @file
 * Ablation: resource sensitivity of the optimized kernels.
 *
 * Sweeps the design parameters the paper's 4W+ / 8W+ discussion turns
 * on: the number of dedicated SBox caches, the number of rotator/XBOX
 * units, and the issue width. Exposes the saturation effects the
 * paper reports (Rijndael/Twofish pinned at 4 IPC on 4W+, SBox-cache
 * bandwidth mattering for the substitution ciphers only).
 *
 * All three sweeps are collected into one driver run, so each cipher's
 * optimized kernel is functionally interpreted exactly once for the
 * whole binary and its trace replays into every configuration in
 * parallel. Stats: BENCH_ablation_resources.json.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace
{

using namespace cryptarch;
using namespace cryptarch::bench;
using kernels::KernelVariant;
using sim::MachineConfig;

const crypto::CipherId sbox_ciphers[] = {
    crypto::CipherId::Blowfish, crypto::CipherId::Rijndael,
    crypto::CipherId::Twofish, crypto::CipherId::MARS,
    crypto::CipherId::IDEA};
const unsigned sbox_counts[] = {0, 1, 2, 4, 8};

const crypto::CipherId rot_ciphers[] = {
    crypto::CipherId::MARS, crypto::CipherId::RC6,
    crypto::CipherId::Twofish, crypto::CipherId::TripleDES};
const unsigned rot_counts[] = {1, 2, 4, 8};

const unsigned issue_widths[] = {2, 4, 8, 16};

MachineConfig
sboxConfig(unsigned c)
{
    MachineConfig cfg = MachineConfig::fourWidePlus();
    cfg.numSboxCaches = c;
    cfg.name = "4W+" + std::to_string(c) + "sb";
    return cfg;
}

MachineConfig
rotConfig(unsigned c)
{
    MachineConfig cfg = MachineConfig::fourWidePlus();
    cfg.numRotUnits = c;
    cfg.name = std::to_string(c) + "rot";
    return cfg;
}

MachineConfig
widthConfig(unsigned w)
{
    MachineConfig cfg = MachineConfig::fourWidePlus();
    cfg.issueWidth = w;
    cfg.fetchWidth = w;
    cfg.fetchBlocksPerCycle = (w + 3) / 4;
    cfg.numIntAlu = w;
    cfg.numRotUnits = w;
    // One 64-bit multiplier (two half slots) at least: admission
    // rejects a pool that cannot issue a 64-bit multiply.
    cfg.mulHalfSlots = std::max(2u, w / 2);
    cfg.numDCachePorts = (w + 1) / 2;
    cfg.windowSize = 32 * w;
    cfg.name = std::to_string(w) + "-wide";
    return cfg;
}

/** One table: B/kcycle of each (cipher row, config column) result. */
template <typename Ciphers, typename Configs>
void
printSweep(const std::vector<driver::SweepResult> &results,
           const Ciphers &ciphers, const Configs &configs,
           const char *header, unsigned rule_len)
{
    std::printf("%s\n\n%-10s", header, "Cipher");
    for (const auto &cfg : configs)
        std::printf("%9s", cfg.name.c_str());
    std::printf("\n%.*s\n", rule_len,
                "------------------------------------------------------"
                "----------");
    for (auto id : ciphers) {
        std::printf("%-10s", crypto::cipherInfo(id).name.c_str());
        for (const auto &cfg : configs) {
            const auto &r = driver::findResult(
                results, id, KernelVariant::Optimized, cfg.name);
            std::printf("%9s",
                        gridCell(r.ok(), "%.1f",
                                 bytesPerKiloCycle(r.stats.cycles,
                                                   r.bytes))
                            .c_str());
        }
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<MachineConfig> sbox_cfgs, rot_cfgs, width_cfgs;
    for (unsigned c : sbox_counts)
        sbox_cfgs.push_back(sboxConfig(c));
    for (unsigned c : rot_counts)
        rot_cfgs.push_back(rotConfig(c));
    for (unsigned w : issue_widths)
        width_cfgs.push_back(widthConfig(w));

    std::vector<driver::SweepCell> cells;
    for (auto id : sbox_ciphers)
        for (const auto &cfg : sbox_cfgs)
            cells.push_back({id, KernelVariant::Optimized, cfg,
                             session_bytes});
    for (auto id : rot_ciphers)
        for (const auto &cfg : rot_cfgs)
            cells.push_back({id, KernelVariant::Optimized, cfg,
                             session_bytes});
    for (auto id : allCiphers())
        for (const auto &cfg : width_cfgs)
            cells.push_back({id, KernelVariant::Optimized, cfg,
                             session_bytes});

    auto results = driver::runCells(cells, sweepOptions(argc, argv));

    std::printf("Resource ablations for the optimized cipher kernels\n"
                "====================================================\n\n");
    printSweep(results, sbox_ciphers, sbox_cfgs,
               "SBox cache count (optimized kernels, 4-wide core, "
               "bytes/1000 cycles):",
               56);
    printSweep(results, rot_ciphers, rot_cfgs,
               "Rotator/XBOX units (optimized kernels, 4-wide core, "
               "bytes/1000 cycles):",
               46);
    printSweep(results, allCiphers(), width_cfgs,
               "Issue width (optimized kernels, 4W+ resources scaled, "
               "bytes/1000 cycles):",
               46);

    driver::writeBenchJson("BENCH_ablation_resources.json",
                           "ablation_resources", results);
    std::printf("(Stats: BENCH_ablation_resources.json.)\n");
    return reportFailedCells(results);
}
