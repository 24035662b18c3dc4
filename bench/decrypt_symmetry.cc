/**
 * @file
 * Verifies paper footnote 1: "Because of the symmetry between the
 * encryption and decryption algorithms, performance was comparable
 * for these codes for all experiments."
 *
 * Times the encryption and decryption kernels of every cipher on the
 * 4W machine and reports the ratio; the paper's claim holds when all
 * ratios sit near 1.0.
 *
 * Both directions record through driver::recordKernelTrace, so each
 * run is oracle-checked: encryption against the reference ciphertext,
 * decryption against round-trip recovery of the plaintext from the
 * reference ciphertext.
 *
 * Every timed run also goes to BENCH_decrypt_symmetry.json, one row
 * per (cipher, variant, direction) with a "direction" member.
 */

#include <cstdio>

#include "bench/common.hh"

namespace
{

cryptarch::sim::SimStats
timeDirection(cryptarch::crypto::CipherId id,
              cryptarch::kernels::KernelVariant variant,
              cryptarch::kernels::KernelDirection dir)
{
    using namespace cryptarch;
    using namespace cryptarch::bench;
    return driver::recordKernelTrace(id, variant, session_bytes, dir)
        .replay(sim::MachineConfig::fourWide());
}

} // namespace

int
main()
{
    using namespace cryptarch;
    using namespace cryptarch::bench;
    using kernels::KernelDirection;
    using kernels::KernelVariant;

    std::printf("Encryption/decryption symmetry (paper footnote 1)\n"
                "(4KB session, 4W machine, cycles).\n\n");
    std::printf("%-10s %-14s %12s %12s %8s\n", "Cipher", "Variant",
                "encrypt", "decrypt", "ratio");
    std::printf("%.60s\n",
                "----------------------------------------------------"
                "--------");
    std::vector<driver::SweepResult> rows;
    std::vector<std::string> extras;
    auto row = [&](crypto::CipherId id, KernelVariant v,
                   const sim::SimStats &stats, const char *direction) {
        driver::SweepResult r;
        r.cipher = id;
        r.variant = v;
        r.model = sim::MachineConfig::fourWide().name;
        r.stats = stats;
        rows.push_back(r);
        extras.push_back(std::string("\"direction\": \"") + direction
                         + "\"");
    };
    for (auto id : allCiphers()) {
        const auto &info = crypto::cipherInfo(id);
        for (auto v : {KernelVariant::BaselineRot,
                       KernelVariant::Optimized}) {
            auto enc = timeDirection(id, v, KernelDirection::Encrypt);
            auto dec = timeDirection(id, v, KernelDirection::Decrypt);
            row(id, v, enc, "encrypt");
            row(id, v, dec, "decrypt");
            std::printf("%-10s %-14s %12llu %12llu %8.2f\n",
                        info.name.c_str(),
                        kernels::variantName(v).c_str(),
                        static_cast<unsigned long long>(enc.cycles),
                        static_cast<unsigned long long>(dec.cycles),
                        static_cast<double>(dec.cycles)
                            / static_cast<double>(enc.cycles));
        }
    }
    std::printf(
        "\n(Ratios below 1.0 are a real CBC effect the out-of-order\n"
        "core exploits: decryption blocks depend only on stored\n"
        "ciphertext, so they overlap, while CBC encryption is one\n"
        "serial recurrence. Ciphers already at dataflow speed —\n"
        "3DES, Mars, Rijndael — show the paper's \"comparable\"\n"
        "behavior directly.)\n");
    driver::writeBenchJson("BENCH_decrypt_symmetry.json",
                           "decrypt_symmetry", rows, extras);
    return 0;
}
