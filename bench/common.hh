/**
 * @file
 * Shared helpers for the figure/table regeneration benches.
 *
 * Every bench uses the same deterministic key/IV/plaintext material
 * (seeded xorshift) and the paper's 4 KB session length unless a
 * figure calls for a sweep. Workload generation and kernel timing live
 * in the driver library (src/driver/); the helpers here are thin
 * wrappers kept for the single-model call sites. Grid-shaped benches
 * use driver::runSweep / driver::runCells directly so every kernel is
 * functionally interpreted once no matter how many timing models it
 * feeds.
 */

#ifndef CRYPTARCH_BENCH_COMMON_HH
#define CRYPTARCH_BENCH_COMMON_HH

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "crypto/cipher.hh"
#include "driver/grids.hh"
#include "driver/json.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"
#include "driver/workload.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"

namespace cryptarch::bench
{

/** The paper's standard session length (section 4.2). */
using driver::session_bytes;

/** Deterministic key material for a cipher. */
using driver::Workload;
using driver::makeWorkload;

/**
 * Build a kernel, run it functionally, and time it on @p cfg.
 *
 * One functional interpretation per call: call sites that sweep many
 * models over the same kernel should record once and replay instead
 * (driver::recordKernelTrace / driver::runSweep).
 */
inline sim::SimStats
timeKernel(crypto::CipherId id, kernels::KernelVariant variant,
           const sim::MachineConfig &cfg, size_t bytes = session_bytes)
{
    return driver::recordKernelTrace(id, variant, bytes).replay(cfg);
}

/**
 * bytes encrypted per 1000 cycles (the paper's Figure 4 metric). The
 * byte count is a required argument: a sweep that varies session
 * length must pass the length it actually simulated, so the metric can
 * never silently divide by the default 4 KB session.
 */
inline double
bytesPerKiloCycle(uint64_t cycles, size_t bytes)
{
    return 1000.0 * static_cast<double>(bytes)
        / static_cast<double>(cycles);
}

/** All eight cipher ids in Table 1 order. */
inline std::vector<crypto::CipherId>
allCiphers()
{
    return driver::allCiphers();
}

/**
 * Render one numeric grid cell: @p value formatted with @p fmt when
 * @p ok, the marker "FAIL" otherwise — failed cells keep the grid's
 * shape instead of aborting the table.
 */
inline std::string
gridCell(bool ok, const char *fmt, double value)
{
    if (!ok)
        return "FAIL";
    char buf[48];
    std::snprintf(buf, sizeof(buf), fmt, value);
    return buf;
}

/**
 * The value @p value of a numeric flag @p flag, as a whole number in
 * [@p min, @p max]: decimal, or hexadecimal with a 0x prefix. Anything
 * else (empty, a sign, trailing characters, out of range) exits 2 with
 * a usage message naming the flag, so a typo never runs the default.
 * sweepOptions and every bench's own numeric flags parse through here.
 */
inline uint64_t
wholeNumberFlag(const char *argv0, const char *flag, const char *value,
                uint64_t min = 0, uint64_t max = UINT64_MAX)
{
    const char *begin = value;
    const char *end = value + std::strlen(value);
    int base = 10;
    if (end - begin > 2 && begin[0] == '0'
        && (begin[1] == 'x' || begin[1] == 'X')) {
        begin += 2;
        base = 16;
    }
    uint64_t v = 0;
    auto [stop, ec] = std::from_chars(begin, end, v, base);
    if (ec != std::errc{} || stop != end || v < min || v > max) {
        std::fprintf(stderr, "%s: %s needs a whole number", argv0, flag);
        if (min > 0 || max < UINT64_MAX)
            std::fprintf(stderr, " in [%llu, %llu]",
                         static_cast<unsigned long long>(min),
                         static_cast<unsigned long long>(max));
        std::fprintf(stderr, ", got '%s'\n", value);
        std::exit(2);
    }
    return v;
}

/**
 * The one parser of the sweep flags every sweep bench shares:
 *
 *   --isolate=thread|process   worker isolation
 *   --journal=PATH             checkpoint journal
 *   --deadline=SECONDS         per-cell watchdog (process isolation)
 *   --threads=N                worker count (0 = every core)
 *
 * Starts from @p defaults, and a flag overrides its field. No
 * environment variable is consulted. Unknown arguments are ignored, so
 * a bench with its own flags (e.g. --quick) can share argv. A
 * malformed known flag exits 2 with a usage message rather than
 * silently running the wrong configuration.
 */
inline driver::SweepOptions
sweepOptions(int argc, char **argv, driver::SweepOptions defaults = {})
{
    driver::SweepOptions opts = std::move(defaults);
    auto usage = [&](const char *what, const char *got) {
        std::fprintf(stderr, "%s: %s, got '%s'\n", argv[0], what, got);
        std::exit(2);
    };
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--isolate=", 10) == 0) {
            const char *mode = arg + 10;
            if (std::strcmp(mode, "thread") == 0)
                opts.isolation = driver::SweepIsolation::Thread;
            else if (std::strcmp(mode, "process") == 0)
                opts.isolation = driver::SweepIsolation::Process;
            else
                usage("--isolate takes 'thread' or 'process'", mode);
        } else if (std::strncmp(arg, "--journal=", 10) == 0) {
            opts.journalPath = arg + 10;
            if (opts.journalPath.empty())
                usage("--journal needs a path", "");
        } else if (std::strncmp(arg, "--deadline=", 11) == 0) {
            const char *seconds = arg + 11;
            char *end = nullptr;
            opts.cellDeadlineSeconds = std::strtod(seconds, &end);
            if (end == seconds || *end != '\0'
                || !std::isfinite(opts.cellDeadlineSeconds)
                || opts.cellDeadlineSeconds <= 0)
                usage("--deadline needs positive seconds", seconds);
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            opts.threads = static_cast<unsigned>(wholeNumberFlag(
                argv[0], "--threads", arg + 10, 0, UINT_MAX));
        }
    }
    return opts;
}

/**
 * Print every failed cell of a fail-soft sweep to stderr and return
 * the bench exit code: 0 for an all-ok grid, 1 otherwise. Benches end
 * with `return reportFailedCells(results);` so one bad cell fails the
 * run without suppressing the rest of the grid.
 */
inline int
reportFailedCells(const std::vector<driver::SweepResult> &results)
{
    size_t failed = 0;
    for (const auto &r : results) {
        if (r.ok())
            continue;
        failed++;
        std::fprintf(stderr, "FAILED cell (%s, %s, %s): [%s] %s\n",
                     crypto::cipherInfo(r.cipher).name.c_str(),
                     kernels::variantName(r.variant).c_str(),
                     r.model.c_str(), driver::cellOutcomeName(r.outcome),
                     r.message.c_str());
    }
    if (failed)
        std::fprintf(stderr, "%zu of %zu cells failed\n", failed,
                     results.size());
    return failed ? 1 : 0;
}

} // namespace cryptarch::bench

#endif // CRYPTARCH_BENCH_COMMON_HH
