/**
 * @file
 * Server-at-scale SSL session simulation (ROADMAP item 1: Figure 2
 * grown into a loaded server).
 *
 * Per (bulk cipher, machine model) the kernel is timed through the
 * existing sweep runner at two probe lengths — the marginal slope is
 * the steady-state cycles/byte and the intercept the per-invocation
 * prologue (the same accounting SessionModel uses) — and the RSA-1024
 * handshake word multiplies are measured once with per-side counter
 * resets, so only the server's CRT private operation is billed to the
 * server. Key-setup cycles use the Figure 6 estimate over the
 * measured kernel IPC, which is what makes Blowfish's 521-encryption
 * key schedule a first-class axis of the results.
 *
 * Those rates feed ssl::runServerSims: an open-loop Poisson arrival
 * process over a population of sessions (default one million per
 * cell), log-normal session lengths split over geometric request
 * counts, per-session CBC chaining state carried across requests, and
 * an FCFS bank of cores. Output per cell: the population-aggregated
 * Figure 2 fraction breakdown and, per offered-load factor, latency
 * percentiles (p50/p95/p99) and offered vs. achieved throughput.
 *
 * Everything is deterministic for any worker-thread count; the full
 * grid goes to BENCH_server.json (schema 3 rows — the probe-kernel
 * SimStats — plus a "server" extras object per row, the same
 * extension mechanism simspeed uses).
 *
 * Usage: server_scale [--quick] [--sessions N] [common sweep flags]
 *   --quick      CI smoke mode: fewer cells, 50k sessions.
 *   --sessions N population size per cell (overrides mode default).
 *   --threads=N  worker threads for kernel sweep and simulations.
 * The kernel sweep also takes --isolate/--journal/--deadline
 * (bench/common.hh sweepOptions).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "ssl/server.hh"
#include "ssl/session.hh"

namespace
{

using namespace cryptarch;

constexpr size_t probe_lo = 2048;
constexpr size_t probe_hi = 4096;

/** Setup-cycle estimate at the measured IPC (the Figure 6 numbers). */
double
setupCycles(crypto::CipherId id, double ipc)
{
    const auto &info = crypto::cipherInfo(id);
    uint64_t insts = info.isStream
        ? crypto::makeStreamCipher(id)->setupOpEstimate()
        : crypto::makeBlockCipher(id)->setupOpEstimate();
    return static_cast<double>(insts) / (ipc > 0 ? ipc : 1.0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cryptarch::bench;

    bool quick = false;
    uint64_t sessions_override = 0;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;
        else if (!std::strcmp(argv[i], "--sessions") && i + 1 < argc)
            sessions_override = std::strtoull(argv[++i], nullptr, 10);
    }
    const driver::SweepOptions opts = sweepOptions(argc, argv);

    // The paper's default bulk cipher (3DES), the fast stream cipher
    // (RC4), and the key-agility outlier (Blowfish, Figure 6).
    const std::vector<crypto::CipherId> ciphers = quick
        ? std::vector<crypto::CipherId>{crypto::CipherId::TripleDES,
                                        crypto::CipherId::Blowfish}
        : std::vector<crypto::CipherId>{crypto::CipherId::TripleDES,
                                        crypto::CipherId::RC4,
                                        crypto::CipherId::Blowfish};
    const std::vector<sim::MachineConfig> models = quick
        ? std::vector<sim::MachineConfig>{sim::MachineConfig::fourWide(),
                                          sim::MachineConfig::dataflow()}
        : std::vector<sim::MachineConfig>{
              sim::MachineConfig::fourWide(),
              sim::MachineConfig::fourWidePlus(),
              sim::MachineConfig::eightWidePlus(),
              sim::MachineConfig::dataflow()};

    ssl::ServerSimParams params;
    params.sessions = sessions_override
        ? sessions_override
        : (quick ? 50000ull : 1000000ull);
    if (quick)
        params.loadFactors = {0.8, 1.1};

    // --- handshake: one measurement, per-side counters ---
    ssl::SessionModelParams costs; // default calibration constants
    auto ops = ssl::measureHandshakeOps(costs.rsaBits);
    const double server_handshake =
        static_cast<double>(ops.serverMulOps) * costs.cyclesPerWordMul;
    const double client_handshake =
        static_cast<double>(ops.clientMulOps) * costs.cyclesPerWordMul;

    std::printf("Server at scale: SSL session population per "
                "(cipher, model)\n(%s mode: %llu sessions/cell, %u "
                "cores, RSA-%u handshake %.2f Mcycles server / %.3f "
                "Mcycles client)\n\n",
                quick ? "quick" : "full",
                static_cast<unsigned long long>(params.sessions),
                params.servers, costs.rsaBits, server_handshake / 1e6,
                client_handshake / 1e6);

    // --- kernel rates through the sweep runner: two probes per cell,
    // recorded once per (cipher, bytes) and replayed per model ---
    std::vector<driver::SweepCell> cells;
    for (auto id : ciphers)
        for (const auto &model : models)
            for (size_t bytes : {probe_lo, probe_hi})
                cells.push_back({id, kernels::KernelVariant::BaselineRot,
                                 model, bytes});
    auto kernel_results = driver::runCells(cells, opts);

    std::vector<driver::SweepResult> rows;
    std::vector<ssl::ServerRates> rates;
    std::vector<size_t> rate_row; // row index of each rates entry
    for (size_t ci = 0; ci < ciphers.size(); ci++) {
        for (size_t mi = 0; mi < models.size(); mi++) {
            const auto &lo =
                kernel_results[(ci * models.size() + mi) * 2];
            const auto &hi =
                kernel_results[(ci * models.size() + mi) * 2 + 1];
            driver::SweepResult row = hi; // probe-kernel stats
            if (lo.ok() && hi.ok()) {
                ssl::ServerRates r;
                r.cipher = ciphers[ci];
                r.model = models[mi].name;
                r.serverHandshakeCycles = server_handshake;
                r.clientHandshakeCycles = client_handshake;
                r.cyclesPerByte =
                    static_cast<double>(hi.stats.cycles - lo.stats.cycles)
                    / static_cast<double>(probe_hi - probe_lo);
                r.prologueCycles =
                    static_cast<double>(lo.stats.cycles)
                    - r.cyclesPerByte * static_cast<double>(probe_lo);
                r.keySetupCycles =
                    setupCycles(ciphers[ci], hi.stats.ipc());
                r.requestOverheadCycles = costs.requestOverheadCycles;
                r.perByteOverheadCycles = costs.perByteOverheadCycles;
                rate_row.push_back(rows.size());
                rates.push_back(r);
            } else if (!lo.ok()) {
                row = lo; // carry the failing probe's outcome
            }
            rows.push_back(row);
        }
    }

    // --- the simulations themselves (deterministic for any count) ---
    auto sims = ssl::runServerSims(rates, params, opts.threads);

    std::vector<std::string> extras(rows.size());
    for (size_t i = 0; i < rates.size(); i++) {
        const auto &r = rates[i];
        const auto &s = sims[i];

        std::printf("%s on %s: %.2f cyc/B + %.0f-cycle prologue, "
                    "setup %.0f cycles; mean service %.3f Mcycles\n",
                    crypto::cipherInfo(r.cipher).name.c_str(),
                    r.model.c_str(), r.cyclesPerByte, r.prologueCycles,
                    r.keySetupCycles, s.meanServiceCycles / 1e6);
        std::printf("  population: %.0f B/session mean, %.2f "
                    "requests/session, %.1f%% resumed, fractions "
                    "public %.1f%% / setup %.1f%% / bulk %.1f%% / "
                    "other %.1f%%, chain digest %016llx\n",
                    s.meanSessionBytes, s.meanRequests,
                    100 * s.resumedShare,
                    100 * s.handshakeFraction, 100 * s.setupFraction,
                    100 * s.bulkFraction, 100 * s.otherFraction,
                    static_cast<unsigned long long>(s.chainDigest));
        std::printf("  %6s %14s %14s %6s %10s %10s %10s\n", "load",
                    "offered/Gcyc", "achieved/Gcyc", "util",
                    "p50 Mcyc", "p95 Mcyc", "p99 Mcyc");
        std::string curve = "\"curve\": [";
        for (size_t p = 0; p < s.points.size(); p++) {
            const auto &pt = s.points[p];
            std::printf("  %6.2f %14.3f %14.3f %5.1f%% %10.3f %10.3f "
                        "%10.3f\n",
                        pt.loadFactor, pt.offeredPerGcycle,
                        pt.achievedPerGcycle, 100 * pt.utilization,
                        pt.p50Cycles / 1e6, pt.p95Cycles / 1e6,
                        pt.p99Cycles / 1e6);
            char buf[320];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"load\": %.2f, \"offered_per_gcycle\": %.4f, "
                "\"achieved_per_gcycle\": %.4f, \"utilization\": %.4f, "
                "\"p50_mcycles\": %.4f, \"p95_mcycles\": %.4f, "
                "\"p99_mcycles\": %.4f, \"mean_mcycles\": %.4f}",
                p ? ", " : "", pt.loadFactor, pt.offeredPerGcycle,
                pt.achievedPerGcycle, pt.utilization,
                pt.p50Cycles / 1e6, pt.p95Cycles / 1e6,
                pt.p99Cycles / 1e6, pt.meanCycles / 1e6);
            curve += buf;
        }
        curve += "]";
        std::printf("\n");

        char head[768];
        std::snprintf(
            head, sizeof(head),
            "\"server\": {\"sessions\": %llu, \"servers\": %u, "
            "\"seed\": %llu, "
            "\"rates\": {\"server_handshake_mcycles\": %.6f, "
            "\"client_handshake_mcycles\": %.6f, "
            "\"key_setup_cycles\": %.1f, \"prologue_cycles\": %.1f, "
            "\"cycles_per_byte\": %.4f, "
            "\"request_overhead_cycles\": %.1f, "
            "\"per_byte_overhead_cycles\": %.2f}, "
            "\"population\": {\"mean_session_bytes\": %.1f, "
            "\"mean_requests\": %.4f, \"resumed_share\": %.4f, "
            "\"mean_service_mcycles\": %.6f, "
            "\"chain_digest\": \"%016llx\", "
            "\"fractions\": {\"public_key\": %.6f, \"setup\": %.6f, "
            "\"bulk\": %.6f, \"other\": %.6f}}, ",
            static_cast<unsigned long long>(s.sessions), s.servers,
            static_cast<unsigned long long>(params.seed),
            r.serverHandshakeCycles / 1e6,
            r.clientHandshakeCycles / 1e6, r.keySetupCycles,
            r.prologueCycles, r.cyclesPerByte, r.requestOverheadCycles,
            r.perByteOverheadCycles, s.meanSessionBytes, s.meanRequests,
            s.resumedShare, s.meanServiceCycles / 1e6,
            static_cast<unsigned long long>(s.chainDigest),
            s.handshakeFraction, s.setupFraction, s.bulkFraction,
            s.otherFraction);
        extras[rate_row[i]] = std::string(head) + curve + "}";
    }

    driver::writeBenchJson("BENCH_server.json", "server_scale", rows,
                           extras);
    std::printf("(Full grid: BENCH_server.json; %zu cells, %zu "
                "simulated.)\n",
                rows.size(), sims.size());
    return reportFailedCells(rows);
}
