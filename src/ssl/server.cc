#include "ssl/server.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

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

/**
 * Per-session CBC chain carried across requests. Block ciphers advance
 * a real chain block through the session's bulk cipher (one shared key
 * schedule per cipher population — the chain models the *state*, key
 * agility is billed through ServerRates::keySetupCycles); RC4 keeps a
 * 64-bit keystream-style mix. Either way the final fold feeds the
 * population digest.
 */
class ChainState
{
  public:
    explicit ChainState(const crypto::BlockCipher *cipher,
                        unsigned block_bytes, uint64_t iv)
        : cipher_(cipher), blockBytes_(block_bytes)
    {
        for (unsigned i = 0; i < blockBytes_ && i < sizeof(block_); i++)
            block_[i] = static_cast<uint8_t>(iv >> (8 * (i & 7)));
        mix_ = iv;
    }

    void
    absorbRequest(uint64_t request_bytes)
    {
        if (cipher_) {
            for (unsigned i = 0; i < 8; i++)
                block_[i] ^= static_cast<uint8_t>(request_bytes
                                                  >> (8 * i));
            cipher_->encryptBlock(block_, block_);
        } else {
            mix_ = splitmix64(mix_ ^ request_bytes);
        }
    }

    uint64_t
    fold() const
    {
        if (!cipher_)
            return mix_;
        uint64_t f = 0;
        for (unsigned i = 0; i < 8; i++)
            f |= static_cast<uint64_t>(block_[i]) << (8 * i);
        return f;
    }

  private:
    const crypto::BlockCipher *cipher_;
    unsigned blockBytes_;
    uint8_t block_[32] = {};
    uint64_t mix_ = 0;
};

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

/** Chain pass over chunk @p c: redraw its sessions, run their chains. */
void
chainChunk(Population &pop, size_t c, const ServerSimParams &params)
{
    const unsigned block_bytes = crypto::cipherInfo(pop.cipher).blockBytes;
    Xorshift64 rng = pop.chunkStart[c];
    const uint64_t end = std::min(params.sessions, (c + 1) * chain_chunk);
    uint64_t digest = 0;
    for (uint64_t i = c * chain_chunk; i < end; i++) {
        const SessionDraw s = drawSession(rng, params);
        // CBC chaining state carried across the session's requests:
        // each boundary advances the running chain block, no fresh IV
        // or key schedule mid-session.
        ChainState chain(pop.chainCipher.get(), block_bytes, s.iv);
        uint64_t per_req = s.bytes / s.requests;
        uint64_t extra = s.bytes % s.requests;
        for (uint32_t r = 0; r < s.requests; r++)
            chain.absorbRequest(per_req + (r < extra ? 1 : 0));
        digest ^= splitmix64(chain.fold()
                             ^ (i * 0x9E3779B97F4A7C15ull));
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

    std::priority_queue<double, std::vector<double>, std::greater<double>>
        free_at;
    for (unsigned s = 0; s < params.servers; s++)
        free_at.push(0.0);

    std::vector<double> latency(n);
    double t = 0, makespan = 0;
    for (uint64_t i = 0; i < n; i++) {
        t += expSample(arng, 1.0 / lambda);
        double f = free_at.top();
        free_at.pop();
        double start = std::max(t, f);
        double done = start + pop.serviceOf(i, rates, params).total();
        free_at.push(done);
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
    auto pct = [&](double q) {
        size_t k = static_cast<size_t>(q * static_cast<double>(n - 1));
        std::nth_element(latency.begin(), latency.begin() + k,
                         latency.end());
        return latency[k];
    };
    pt.p50Cycles = pct(0.50);
    pt.p95Cycles = pct(0.95);
    pt.p99Cycles = pct(0.99);
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
