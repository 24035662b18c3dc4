/**
 * @file
 * Server-at-scale SSL workload model (growing paper Figure 2 from one
 * session into a loaded server).
 *
 * The paper characterizes an SSL *server*: Figure 2's fractions came
 * from a web server under load, not from a lone handshake. This module
 * simulates that server as an open-loop queueing system over a
 * population of sessions:
 *
 *  - sessions arrive by a seeded Poisson process (exponential
 *    inter-arrival gaps via inverse CDF over Xorshift64::nextDouble);
 *  - each session draws a payload length from a log-normal
 *    distribution (web-object-like: median ~8 KB, heavy right tail,
 *    clamped to a configurable range) and a geometric number of
 *    requests over which the payload is split;
 *  - per-session service cycles are composed from measured rates (see
 *    ServerRates): one server-side RSA private operation — skipped by
 *    the resumed fraction of sessions, the session cache the paper's
 *    Figure 2 text credits for amortizing handshakes — one bulk key
 *    setup paid by *every* session (the Figure 6 axis: resumed
 *    sessions still derive fresh keys, so Blowfish's 521-encryption
 *    key schedule makes key agility a first-class cost), a kernel
 *    prologue per request, the steady-state cycles/byte bulk rate,
 *    and per-request / per-byte server overhead with kept-alive
 *    follow-on requests discounted;
 *  - each session carries CBC chaining state across its requests: the
 *    running chain block is advanced through the session's bulk block
 *    cipher at every request boundary (a keystream-style mix for
 *    stream ciphers), so follow-on requests continue the chain instead
 *    of paying a fresh IV + key setup — that is *why* setup is charged
 *    once per session and not once per request. The XOR-fold of every
 *    session's final chain is reported as a population digest, a
 *    cheap end-to-end determinism check on the whole simulation;
 *  - the server is a bank of identical cores behind one FCFS queue
 *    (M/G/c): a session's latency is queue wait plus service.
 *
 * For each offered-load factor the simulation reports the latency
 * percentiles (p50/p95/p99), the offered vs. achieved throughput in
 * sessions per gigacycle, and the realized utilization — past
 * saturation (load > 1) achieved throughput pins at capacity while
 * the percentiles diverge, which is the curve shape the bench plots.
 *
 * Everything is deterministic: one Xorshift64 stream per cipher
 * population, a sequential event loop per (rates, load factor), and
 * every parallel task writes pre-assigned slots, so output is
 * identical for any worker-thread count.
 */

#ifndef CRYPTARCH_SSL_SERVER_HH
#define CRYPTARCH_SSL_SERVER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/cipher.hh"

namespace cryptarch::ssl
{

/**
 * Measured per-(cipher, machine-model) cost constants feeding the
 * server simulation. The bench fills these from the sweep runner's
 * kernel replays plus measureHandshakeOps(); tests may fill them by
 * hand. All values are cycles (or cycles/byte).
 */
struct ServerRates
{
    crypto::CipherId cipher{};
    std::string model; ///< machine-model label (reporting only)

    double serverHandshakeCycles = 0; ///< RSA private op (CRT), server
    double clientHandshakeCycles = 0; ///< client public op (reference)
    double keySetupCycles = 0;  ///< bulk-cipher key schedule, per session
    double prologueCycles = 0;  ///< kernel prologue, per request
    double cyclesPerByte = 0;   ///< steady-state bulk rate
    double requestOverheadCycles = 500e3; ///< parsing/socket/scheduling
    double perByteOverheadCycles = 4.0;   ///< copy/checksum per byte
};

/** Shape of the simulated session population and server. */
struct ServerSimParams
{
    uint64_t sessions = 1000000; ///< population size per simulation
    unsigned servers = 8;        ///< identical cores behind one queue
    uint64_t seed = 0x5CA1AB1E;  ///< RNG seed (population + arrivals)

    double meanRequestsPerSession = 4.0; ///< geometric, >= 1
    double log2MedianBytes = 13.0;       ///< log-normal median (8 KB)
    double log2SigmaBytes = 1.6;         ///< log-normal spread (base 2)
    size_t minBytes = 256;               ///< clamp floor
    size_t maxBytes = 1u << 20;          ///< clamp ceiling (1 MB)

    /**
     * Session-cache hit rate: a resumed session skips the RSA private
     * operation but still derives fresh session keys, so it pays the
     * bulk key schedule in full. This is what makes key agility a
     * first-class axis — under heavy resumption the Figure 6 setup
     * outlier (Blowfish) dominates the remaining handshake work.
     */
    double resumedFraction = 0.7;
    /**
     * Overhead factor for follow-on requests on the kept-alive
     * connection: request 1 pays requestOverheadCycles in full,
     * requests 2..n pay this fraction of it.
     */
    double keepAliveFactor = 0.25;

    /** Offered load as a fraction of server capacity; >1 saturates. */
    std::vector<double> loadFactors = {0.5, 0.8, 0.95, 1.1};
};

/** One point of the offered-load vs. latency/throughput curve. */
struct ServerLoadPoint
{
    double loadFactor = 0;        ///< offered / capacity
    double offeredPerGcycle = 0;  ///< arrival rate, sessions/Gcycle
    double achievedPerGcycle = 0; ///< completions / makespan
    double utilization = 0;       ///< busy core-cycles / available
    double p50Cycles = 0;         ///< median session latency
    double p95Cycles = 0;
    double p99Cycles = 0;
    double meanCycles = 0;
};

/** Result of one (rates, params) server simulation. */
struct ServerSimResult
{
    uint64_t sessions = 0;
    unsigned servers = 0;

    // Population aggregates (load-independent).
    double meanServiceCycles = 0;
    double meanSessionBytes = 0;
    double meanRequests = 0;
    double resumedShare = 0; ///< realized session-cache hit rate
    /** Figure 2 fractions aggregated over the whole population. */
    double handshakeFraction = 0; ///< public-key (server RSA)
    double setupFraction = 0;     ///< bulk key schedule
    double bulkFraction = 0;      ///< symmetric cipher work
    double otherFraction = 0;     ///< request + per-byte overhead
    /** XOR-fold of all sessions' final CBC chain state. */
    uint64_t chainDigest = 0;

    std::vector<ServerLoadPoint> points; ///< one per load factor
};

/**
 * Run one server simulation: runServerSims({rates}, params, 1)[0].
 * Identical (rates, params) always produce an identical result,
 * including the chain digest.
 */
ServerSimResult runServerSim(const ServerRates &rates,
                             const ServerSimParams &params);

/**
 * Run one simulation per entry of @p rates on a pool of @p threads
 * workers (0 = hardware concurrency, capped at each pass's task
 * count). The session population and the chain digest depend only on
 * the cipher and @p params, so they are computed once per distinct
 * cipher and shared by every entry of that cipher:
 *
 *  1. population pass — one sequential stream walk per cipher,
 *     keeping ~9 bytes per session (bytes, requests, resumed);
 *  2. chain pass — the digest in fixed chunks of sessions, each
 *     redrawn from a stream snapshot and XOR-combined, so the bits do
 *     not depend on chunking or thread count; the per-rate aggregate
 *     passes run alongside;
 *  3. queue pass — one task per (rates entry, load factor).
 *
 * Results are written into pre-assigned slots, so the returned vector
 * is ordered exactly like @p rates for any thread count — the same
 * determinism contract as driver::runCells.
 *
 * @throws std::invalid_argument naming the field when @p params is
 *         degenerate: no sessions or servers, minBytes > maxBytes, a
 *         non-finite distribution parameter, or a load factor that is
 *         not finite and positive.
 */
std::vector<ServerSimResult>
runServerSims(const std::vector<ServerRates> &rates,
              const ServerSimParams &params, unsigned threads = 0);

/**
 * The {p50, p95, p99} of @p latency: for quantile q, element
 * floor(q * (n - 1)) of the values in ascending order. Reorders
 * @p latency (three nested selections, no full sort).
 *
 * @throws std::invalid_argument when @p latency is empty.
 */
std::array<double, 3> latencyPercentiles(std::vector<double> &latency);

} // namespace cryptarch::ssl

#endif // CRYPTARCH_SSL_SERVER_HH
