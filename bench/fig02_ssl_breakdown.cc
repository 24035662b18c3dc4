/**
 * @file
 * Regenerates paper Figure 2: SSL server run-time characterization by
 * session length — fraction of cycles in public-key cipher code,
 * private-key cipher code, and everything else.
 *
 * The paper's data came from Intel measurements of a loaded web
 * server; here every component is computed (see ssl/session.hh). The
 * shape to reproduce: public-key work dominates very short sessions;
 * by ~32 KB the private-key cipher is ~half of run time and keeps
 * growing.
 *
 * The figure also goes to BENCH_fig02.json. Its rows are the two
 * bulk-rate probe kernels the model times (BaselineRot on 4W at the
 * two probe lengths); the hi-probe row carries the derived rates and
 * the session-length table as its "figure2" member.
 */

#include <cstdio>
#include <string>

#include "bench/common.hh"
#include "ssl/session.hh"

int
main(int argc, char **argv)
{
    using namespace cryptarch;

    crypto::CipherId bulk = crypto::CipherId::TripleDES;
    if (argc > 1 && std::string(argv[1]) == "--rc4")
        bulk = crypto::CipherId::RC4;

    ssl::SessionModel model(bulk);
    const auto &info = crypto::cipherInfo(bulk);

    std::printf("Figure 2. SSL Characterization by Session Length "
                "(bulk cipher: %s).\n\n",
                info.name.c_str());
    std::printf("RSA-1024 handshake (server private op): %.2f Mcycles "
                "(client public op: %.3f Mcycles, not server work)\n"
                "bulk rate: %.1f cycles/byte steady-state; kernel "
                "prologue: %.0f cycles/invocation; setup: %.0f cycles\n\n",
                model.handshakeCycles() / 1e6,
                model.clientHandshakeCycles() / 1e6,
                model.bulkCyclesPerByte(), model.prologueCycles(),
                model.setupCycles());
    std::printf("%10s %12s %12s %12s %14s\n", "Session", "Public-key",
                "Private-key", "Other", "Total Mcycles");
    std::printf("%.64s\n",
                "----------------------------------------------------"
                "------------");
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "\"figure2\": {\"bulk_cipher\": \"%s\", "
                  "\"server_handshake_mcycles\": %.6f, "
                  "\"client_handshake_mcycles\": %.6f, "
                  "\"bulk_cycles_per_byte\": %.4f, "
                  "\"prologue_cycles\": %.1f, \"setup_cycles\": %.1f, "
                  "\"sessions\": [",
                  info.name.c_str(), model.handshakeCycles() / 1e6,
                  model.clientHandshakeCycles() / 1e6,
                  model.bulkCyclesPerByte(), model.prologueCycles(),
                  model.setupCycles());
    std::string figure = buf;
    bool first = true;
    for (size_t kb : {1, 2, 4, 8, 16, 32, 64, 128}) {
        auto c = model.cost(kb * 1024);
        std::printf("%8zuKB %11.1f%% %11.1f%% %11.1f%% %14.2f\n", kb,
                    100.0 * c.publicFraction(),
                    100.0 * c.privateFraction(),
                    100.0 * c.otherFraction(), c.total() / 1e6);
        std::snprintf(buf, sizeof(buf),
                      "%s{\"kb\": %zu, \"public_key\": %.6f, "
                      "\"private_key\": %.6f, \"other\": %.6f, "
                      "\"total_mcycles\": %.6f}",
                      first ? "" : ", ", kb, c.publicFraction(),
                      c.privateFraction(), c.otherFraction(),
                      c.total() / 1e6);
        figure += buf;
        first = false;
    }
    figure += "]}";

    const ssl::SessionModelParams params;
    std::vector<driver::SweepResult> rows(2);
    const size_t probe_bytes[2] = {params.probeBytesLo, params.probeBytesHi};
    for (size_t i = 0; i < 2; i++) {
        rows[i].cipher = bulk;
        rows[i].variant = kernels::KernelVariant::BaselineRot;
        rows[i].model = params.model.name;
        rows[i].bytes = probe_bytes[i];
        rows[i].stats = model.probeStats()[i];
    }
    driver::writeBenchJson("BENCH_fig02.json", "fig02", rows,
                           {"\"probe\": \"lo\"",
                            "\"probe\": \"hi\", " + figure});
    return 0;
}
