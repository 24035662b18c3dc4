#include "ssl/server.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/bitops.hh"
#include "util/xorshift.hh"

namespace cryptarch::ssl
{

namespace
{

using util::Xorshift64;

/**
 * Sessions per chain-digest task. The digest is an XOR over sessions,
 * so any chunking gives the same bits; this only sets the grain of the
 * parallel chain pass.
 */
constexpr uint64_t chain_chunk = 4096;

/**
 * Sessions a block cipher's chain pass runs side by side: each step
 * encrypts one request block of every lane with one encryptBlocks()
 * call, so a cipher that interleaves blocks (3DES) overlaps four
 * independent chains.
 */
constexpr unsigned chain_lanes = 4;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Exponential sample with the given mean (inverse CDF). */
double
expSample(Xorshift64 &rng, double mean)
{
    // 1 - nextDouble() is in (0, 1], so the log never sees zero.
    return -std::log(1.0 - rng.nextDouble()) * mean;
}

/** Standard normal sample (Box-Muller, one value per pair of draws). */
double
normalSample(Xorshift64 &rng)
{
    double u1 = 1.0 - rng.nextDouble(); // (0, 1]
    double u2 = rng.nextDouble();
    return std::sqrt(-2.0 * std::log(u1))
        * std::cos(2.0 * 3.141592653589793 * u2);
}

/** Geometric number of requests with the given mean, in [1, 64]. */
uint32_t
requestCount(Xorshift64 &rng, double mean)
{
    if (mean <= 1.0)
        return 1;
    double p = 1.0 / mean;
    double u = 1.0 - rng.nextDouble(); // (0, 1]
    double k = 1.0 + std::floor(std::log(u) / std::log(1.0 - p));
    return static_cast<uint32_t>(std::clamp(k, 1.0, 64.0));
}

/** One session's draws, in stream order. */
struct SessionDraw
{
    bool resumed = false;
    uint64_t bytes = 0;
    uint32_t requests = 0;
    uint64_t iv = 0;
};

/** Draw the next session from the population stream. */
SessionDraw
drawSession(Xorshift64 &rng, const ServerSimParams &params)
{
    SessionDraw s;
    s.resumed = rng.nextDouble() < params.resumedFraction;
    double z = normalSample(rng);
    double log2b = params.log2MedianBytes + params.log2SigmaBytes * z;
    double b = std::exp2(log2b);
    b = std::clamp(b, static_cast<double>(params.minBytes),
                   static_cast<double>(params.maxBytes));
    s.bytes = static_cast<uint64_t>(b);
    s.requests = requestCount(rng, params.meanRequestsPerSession);
    s.iv = rng.next();
    return s;
}

/**
 * Stream draws drawSession() makes before the IV: the resumed flag,
 * two Box-Muller uniforms, and the request count unless
 * requestCount() returns 1 without drawing.
 */
unsigned
drawsBeforeIv(const ServerSimParams &params)
{
    return params.meanRequestsPerSession <= 1.0 ? 3 : 4;
}

/** One session's service cycles, split the Figure 2 way. */
struct Service
{
    double handshake = 0, setup = 0, bulk = 0, other = 0;

    double total() const { return handshake + setup + bulk + other; }
};

/**
 * A cipher's session population: everything about the sessions that
 * no machine model changes, drawn once and shared by every
 * ServerRates entry of the cipher. Nine bytes per session; the chain
 * pass redraws its sessions' IVs from one stream snapshot per chunk
 * instead of storing them.
 */
struct Population
{
    crypto::CipherId cipher{};
    std::unique_ptr<crypto::BlockCipher> chainCipher; ///< null: stream
    std::vector<uint64_t> bytes;
    std::vector<uint8_t> shape; ///< requests << 1 | resumed
    std::vector<Xorshift64> chunkStart; ///< stream at each chunk start
    std::vector<uint64_t> chunkDigest;  ///< chain digest per chunk

    Service
    serviceOf(uint64_t i, const ServerRates &rates,
              const ServerSimParams &params) const
    {
        const bool resumed = shape[i] & 1;
        const uint32_t requests = shape[i] >> 1;
        const double b = static_cast<double>(bytes[i]);
        // Resumed sessions skip the RSA private op but still derive
        // fresh session keys (the full key schedule); follow-on
        // requests ride the kept-alive connection at a fraction of
        // the first request's overhead.
        return {resumed ? 0.0 : rates.serverHandshakeCycles,
                rates.keySetupCycles,
                rates.prologueCycles * requests + rates.cyclesPerByte * b,
                rates.requestOverheadCycles
                        * (1.0 + params.keepAliveFactor * (requests - 1))
                    + rates.perByteOverheadCycles * b};
    }
};

/**
 * Population pass: the one sequential walk of the stream. Keys the
 * chain cipher (block ciphers draw the key first), records each
 * session's shape and snapshots the stream at every chunk start.
 */
void
drawPopulation(Population &pop, const ServerSimParams &params)
{
    const auto &info = crypto::cipherInfo(pop.cipher);
    Xorshift64 rng(params.seed);
    if (!info.isStream) {
        pop.chainCipher = crypto::makeBlockCipher(pop.cipher);
        pop.chainCipher->setKey(rng.bytes(info.keyBits / 8));
    }
    const uint64_t n = params.sessions;
    pop.bytes.resize(n);
    pop.shape.resize(n);
    pop.chunkStart.reserve((n + chain_chunk - 1) / chain_chunk);
    for (uint64_t i = 0; i < n; i++) {
        if (i % chain_chunk == 0)
            pop.chunkStart.push_back(rng);
        const SessionDraw s = drawSession(rng, params);
        pop.bytes[i] = s.bytes;
        pop.shape[i] = static_cast<uint8_t>(s.requests << 1 | s.resumed);
    }
    pop.chunkDigest.assign(pop.chunkStart.size(), 0);
}

/** Bytes of request @p r of a session split over @p requests. */
uint64_t
requestBytes(uint64_t bytes, uint32_t requests, uint32_t r)
{
    return bytes / requests + (r < bytes % requests ? 1 : 0);
}

/** A session's final chain state folded into the digest. */
uint64_t
digestTerm(uint64_t chain, uint64_t session)
{
    return splitmix64(chain ^ (session * 0x9E3779B97F4A7C15ull));
}

/**
 * Chain pass over chunk @p c. Each session carries CBC chaining state
 * across its requests: every boundary advances the running chain
 * block, with no fresh IV or key schedule mid-session. Block ciphers
 * chain a real block through the population's cipher (one shared key
 * schedule: the chain models the state, key agility is billed through
 * ServerRates::keySetupCycles); RC4 keeps a 64-bit keystream-style
 * mix. Only the IVs are redrawn, by stepping the stream over the draws
 * the population pass already recorded.
 */
void
chainChunk(Population &pop, size_t c, const ServerSimParams &params)
{
    Xorshift64 rng = pop.chunkStart[c];
    const unsigned skip = drawsBeforeIv(params);
    auto nextIv = [&] {
        for (unsigned d = 0; d < skip; d++)
            rng.next();
        return rng.next();
    };
    const uint64_t begin = c * chain_chunk;
    const uint64_t end = std::min(params.sessions, begin + chain_chunk);
    uint64_t digest = 0;

    if (!pop.chainCipher) {
        for (uint64_t i = begin; i < end; i++) {
            uint64_t mix = nextIv();
            const uint32_t requests = pop.shape[i] >> 1;
            for (uint32_t r = 0; r < requests; r++)
                mix = splitmix64(mix
                                 ^ requestBytes(pop.bytes[i], requests, r));
            digest ^= digestTerm(mix, i);
        }
        pop.chunkDigest[c] = digest;
        return;
    }

    // Block ciphers: chain_lanes sessions at a time, each lane's block
    // stored end to end for encryptBlocks(). A lane whose session ends
    // takes the next session, in session order, so the IVs come off
    // the stream in the order the population pass drew them. Idle
    // lanes at the chunk's tail are encrypted and ignored.
    const unsigned bb = crypto::cipherInfo(pop.cipher).blockBytes;
    std::vector<uint8_t> blocks(chain_lanes * bb);
    // A block's first eight bytes, little-endian, absorb the request
    // lengths and give the session's fold.
    auto head = [&](unsigned j) {
        const uint8_t *p = &blocks[j * bb];
        return util::load32le(p)
            | static_cast<uint64_t>(util::load32le(p + 4)) << 32;
    };
    auto setHead = [&](unsigned j, uint64_t v) {
        util::store32le(&blocks[j * bb], static_cast<uint32_t>(v));
        util::store32le(&blocks[j * bb + 4], static_cast<uint32_t>(v >> 32));
    };
    struct Lane
    {
        uint64_t session = 0;
        uint32_t requests = 0; ///< 0: idle
        uint32_t done = 0;
    };
    std::array<Lane, chain_lanes> lanes;
    uint64_t next = begin;
    unsigned live = 0;
    auto refill = [&](unsigned j) {
        Lane &lane = lanes[j];
        lane = {};
        if (next == end)
            return;
        live++;
        lane.session = next++;
        lane.requests = pop.shape[lane.session] >> 1;
        const uint64_t iv = nextIv();
        for (unsigned b = 0; b < bb; b++)
            blocks[j * bb + b] = static_cast<uint8_t>(iv >> (8 * (b & 7)));
    };
    for (unsigned j = 0; j < chain_lanes; j++)
        refill(j);
    while (live) {
        for (unsigned j = 0; j < chain_lanes; j++) {
            Lane &lane = lanes[j];
            if (!lane.requests)
                continue;
            setHead(j, head(j)
                           ^ requestBytes(pop.bytes[lane.session],
                                          lane.requests, lane.done++));
        }
        pop.chainCipher->encryptBlocks(blocks.data(), blocks.data(),
                                       chain_lanes);
        for (unsigned j = 0; j < chain_lanes; j++) {
            Lane &lane = lanes[j];
            if (!lane.requests || lane.done < lane.requests)
                continue;
            digest ^= digestTerm(head(j), lane.session);
            live--;
            refill(j);
        }
    }
    pop.chunkDigest[c] = digest;
}

/**
 * Aggregate pass for one rate: the population-wide means and Figure 2
 * fractions. Returns the total service cycles (the busy time the
 * queue pass turns into utilization).
 */
double
aggregate(const Population &pop, const ServerRates &rates,
          const ServerSimParams &params, ServerSimResult &res)
{
    const uint64_t n = params.sessions;
    double handshake_sum = 0, setup_sum = 0, bulk_sum = 0, other_sum = 0;
    double bytes_sum = 0, requests_sum = 0;
    uint64_t resumed_count = 0;
    for (uint64_t i = 0; i < n; i++) {
        const Service s = pop.serviceOf(i, rates, params);
        handshake_sum += s.handshake;
        setup_sum += s.setup;
        bulk_sum += s.bulk;
        other_sum += s.other;
        bytes_sum += static_cast<double>(pop.bytes[i]);
        requests_sum += pop.shape[i] >> 1;
        resumed_count += pop.shape[i] & 1;
    }

    double total = handshake_sum + setup_sum + bulk_sum + other_sum;
    res.sessions = n;
    res.servers = params.servers;
    res.meanServiceCycles = total / static_cast<double>(n);
    res.meanSessionBytes = bytes_sum / static_cast<double>(n);
    res.meanRequests = requests_sum / static_cast<double>(n);
    res.resumedShare =
        static_cast<double>(resumed_count) / static_cast<double>(n);
    res.handshakeFraction = handshake_sum / total;
    res.setupFraction = setup_sum / total;
    res.bulkFraction = bulk_sum / total;
    res.otherFraction = other_sum / total;
    return total;
}

/** Queue pass: one FCFS M/G/c run at load factor @p li for one rate. */
ServerLoadPoint
queuePoint(const Population &pop, const ServerRates &rates,
           const ServerSimParams &params, size_t li,
           double mean_service, double total)
{
    const uint64_t n = params.sessions;
    double load = params.loadFactors[li];
    // Capacity is servers/meanService sessions per cycle; the offered
    // rate scales it by the load factor.
    double lambda = load * params.servers / mean_service;
    Xorshift64 arng(params.seed + 0x9E3779B97F4A7C15ull * (li + 1));

    // When each core next falls idle. FCFS hands every arrival to the
    // earliest-free core; only the time matters, not which core.
    std::vector<double> free_at(params.servers, 0.0);
    std::vector<double> latency(n);
    double t = 0, makespan = 0;
    for (uint64_t i = 0; i < n; i++) {
        t += expSample(arng, 1.0 / lambda);
        auto core = std::min_element(free_at.begin(), free_at.end());
        double start = std::max(t, *core);
        double done = start + pop.serviceOf(i, rates, params).total();
        *core = done;
        latency[i] = done - t;
        makespan = std::max(makespan, done);
    }

    ServerLoadPoint pt;
    pt.loadFactor = load;
    pt.offeredPerGcycle = lambda * 1e9;
    pt.achievedPerGcycle = static_cast<double>(n) / makespan * 1e9;
    pt.utilization = total / (params.servers * makespan);
    double mean = 0;
    for (double l : latency)
        mean += l;
    pt.meanCycles = mean / static_cast<double>(n);
    const auto pcts = latencyPercentiles(latency);
    pt.p50Cycles = pcts[0];
    pt.p95Cycles = pcts[1];
    pt.p99Cycles = pcts[2];
    return pt;
}

/**
 * Run task(0) .. task(count - 1) on up to @p threads workers, the
 * caller among them. Each task writes only its own slots, so the
 * outcome is the same for any thread count; the first exception a
 * task throws is rethrown once every worker has stopped.
 */
template <typename Task>
void
parallelFor(size_t count, unsigned threads, const Task &task)
{
    threads = static_cast<unsigned>(
        std::clamp<size_t>(count, 1, std::max(threads, 1u)));
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                next = count;
            }
        }
    };
    {
        // jthreads join on scope exit, also if a thread fails to start.
        std::vector<std::jthread> pool;
        for (unsigned i = 1; i < threads; i++)
            pool.emplace_back(worker);
        worker();
    }
    if (error)
        std::rethrow_exception(error);
}

/** Throw std::invalid_argument naming the first unusable field. */
void
validate(const ServerSimParams &params)
{
    auto reject = [](const char *field, const char *why) {
        throw std::invalid_argument(std::string("ServerSimParams::")
                                    + field + ' ' + why);
    };
    if (params.sessions == 0)
        reject("sessions", "must be at least 1");
    if (params.servers == 0)
        reject("servers", "must be at least 1");
    if (params.minBytes > params.maxBytes)
        reject("minBytes", "must not exceed maxBytes");
    const std::pair<const char *, double> reals[] = {
        {"meanRequestsPerSession", params.meanRequestsPerSession},
        {"log2MedianBytes", params.log2MedianBytes},
        {"log2SigmaBytes", params.log2SigmaBytes},
        {"resumedFraction", params.resumedFraction},
        {"keepAliveFactor", params.keepAliveFactor},
    };
    for (const auto &[field, v] : reals)
        if (!std::isfinite(v))
            reject(field, "must be finite");
    for (double load : params.loadFactors)
        if (!std::isfinite(load) || load <= 0)
            reject("loadFactors", "entries must be finite and > 0");
}

} // namespace

std::array<double, 3>
latencyPercentiles(std::vector<double> &latency)
{
    if (latency.empty())
        throw std::invalid_argument("latencyPercentiles: no samples");
    const double qs[3] = {0.50, 0.95, 0.99};
    std::array<double, 3> out{};
    // After nth_element at k, [k, end) holds exactly the ranks k..n-1,
    // so each higher quantile is selected inside the previous tail.
    auto from = latency.begin();
    for (size_t i = 0; i < 3; i++) {
        auto k = latency.begin()
            + static_cast<std::ptrdiff_t>(
                qs[i] * static_cast<double>(latency.size() - 1));
        std::nth_element(from, k, latency.end());
        out[i] = *k;
        from = k;
    }
    return out;
}

ServerSimResult
runServerSim(const ServerRates &rates, const ServerSimParams &params)
{
    return runServerSims({rates}, params, 1)[0];
}

std::vector<ServerSimResult>
runServerSims(const std::vector<ServerRates> &rates,
              const ServerSimParams &params, unsigned threads)
{
    validate(params);
    std::vector<ServerSimResult> results(rates.size());
    if (rates.empty())
        return results;
    if (!threads) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw ? hw : 1;
    }

    // One population per distinct cipher, in first-seen order.
    std::vector<Population> pops;
    std::vector<size_t> pop_of(rates.size());
    for (size_t k = 0; k < rates.size(); k++) {
        auto it = std::find_if(pops.begin(), pops.end(), [&](auto &p) {
            return p.cipher == rates[k].cipher;
        });
        pop_of[k] = static_cast<size_t>(it - pops.begin());
        if (it == pops.end())
            pops.emplace_back().cipher = rates[k].cipher;
    }

    // --- population pass: one sequential stream per cipher ---
    parallelFor(pops.size(), threads,
                [&](size_t p) { drawPopulation(pops[p], params); });

    // --- chain chunks of every population, then the per-rate
    // aggregates (which need only the population records) ---
    std::vector<std::pair<size_t, size_t>> chunks; // (population, chunk)
    for (size_t p = 0; p < pops.size(); p++)
        for (size_t c = 0; c < pops[p].chunkStart.size(); c++)
            chunks.emplace_back(p, c);
    std::vector<double> total(rates.size());
    parallelFor(chunks.size() + rates.size(), threads, [&](size_t t) {
        if (t < chunks.size()) {
            chainChunk(pops[chunks[t].first], chunks[t].second, params);
        } else {
            size_t k = t - chunks.size();
            total[k] = aggregate(pops[pop_of[k]], rates[k], params,
                                 results[k]);
        }
    });

    // --- queue pass per (rate, load factor) ---
    const size_t loads = params.loadFactors.size();
    for (size_t k = 0; k < rates.size(); k++) {
        results[k].points.resize(loads);
        for (uint64_t d : pops[pop_of[k]].chunkDigest)
            results[k].chainDigest ^= d;
    }
    parallelFor(rates.size() * loads, threads, [&](size_t t) {
        size_t k = t / loads, li = t % loads;
        results[k].points[li] =
            queuePoint(pops[pop_of[k]], rates[k], params, li,
                       results[k].meanServiceCycles, total[k]);
    });
    return results;
}

} // namespace cryptarch::ssl
