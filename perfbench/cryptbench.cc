/**
 * @file
 * cryptbench: the measuring half of the cryptarch benchmark.
 *
 * run.py builds this binary, runs it, checks the simulated results it
 * reports against the committed references and turns its raw samples
 * into metrics. This file only does the measured work, through the
 * public APIs of driver, sim and ssl, and prints what it saw as one
 * JSON document.
 *
 *   cryptbench --workload W --seed N --seconds S --threads T
 *              --mode setup|timed|traced
 *
 * setup   performs the workload's per-process set-up and reports its
 *         duration (run.py starts several fresh processes for this).
 * timed   set-up, then closed-loop samples on T threads until S
 *         seconds have passed (at least one sample).
 * traced  set-up, then per round: one untraced sample on T threads
 *         (driver idle share, gate counters), one untraced sample on
 *         one thread (the tracing-overhead baseline) and one traced
 *         single-threaded sample that re-issues the sweep as
 *         recordKernelTrace/replay calls with a span around each.
 *         The two single-threaded samples swap places every round,
 *         and rounds come in pairs.
 *
 * Spans are {name, start, end, parent, cell}; run.py derives self
 * times from them. Layer names are the src/ modules.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "crypto/cipher.hh"
#include "driver/grids.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"
#include "driver/workload.hh"
#include "kernels/kernel.hh"
#include "sim/config.hh"
#include "sim/validate.hh"
#include "ssl/server.hh"
#include "ssl/session.hh"
#include "util/pi.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using Clock = std::chrono::steady_clock;
using driver::SweepCell;
using kernels::KernelVariant;
using sim::MachineConfig;

/** Number of distinct input sets a seed selects among (run.py agrees). */
constexpr uint64_t seed_space = 16;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** User + system CPU seconds of the whole process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
        + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec
                                     + ru.ru_stime.tv_usec);
}

/** The machine's vCPU-seconds, summed over its vCPUs (/proc/stat). */
struct MachineTimes
{
    double idle = 0; ///< idle and iowait
    double busy = 0; ///< everything else: any process, irqs, steal
};

/** Zeros where /proc/stat is missing. */
MachineTimes
machineTimes()
{
    MachineTimes t;
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return t;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    for (int i = 0; i < n; i++)
        (i == 3 || i == 4 ? t.idle : t.busy) +=
            static_cast<double>(v[i]) * tick;
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * A cell's simulated results as a JSON array: every statistic the
 * correctness gate pins (run.py digests it against the reference).
 */
std::string
cellResult(const driver::SweepResult &r)
{
    const sim::SimStats &s = r.stats;
    std::string out = "[";
    out += std::to_string(static_cast<int>(r.outcome));
    auto field = [&out](uint64_t v) {
        out += ',';
        out += std::to_string(v);
    };
    for (uint64_t v :
         {s.instructions, s.cycles, s.condBranches, s.mispredicts, s.loads,
          s.stores, s.sboxAccesses, s.sboxCacheHits, s.sboxCacheAccesses,
          s.sboxCacheMisses, s.l1.accesses, s.l1.misses, s.l2.accesses,
          s.l2.misses, s.tlb.accesses, s.tlb.misses})
        field(v);
    for (uint64_t v : s.stallCycles)
        field(v);
    out += ']';
    return out;
}

/** An ssl_server cell: chain digest, sessions, per-load percentiles. */
std::string
serverResult(const ssl::ServerSimResult &s)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "[\"%016llx\",%llu",
                  static_cast<unsigned long long>(s.chainDigest),
                  static_cast<unsigned long long>(s.sessions));
    std::string out = buf;
    for (const auto &p : s.points) {
        std::snprintf(buf, sizeof buf, ",%.17g,%.17g,%.17g", p.p50Cycles,
                      p.p95Cycles, p.p99Cycles);
        out += buf;
    }
    return out + "]";
}

std::string
cellLabel(const SweepCell &c)
{
    return crypto::cipherInfo(c.cipher).name + "/"
        + kernels::variantName(c.variant) + "/" + c.model.name + "/"
        + std::to_string(c.bytes);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** What one sample runs: runCells calls, then (ssl_server) simulations. */
struct Plan
{
    std::vector<std::vector<SweepCell>> sweeps;
    std::vector<ssl::ServerRates> rates;
    ssl::ServerSimParams params;
};

/** runSweep's cell order: cipher-major, then variant, then model. */
std::vector<SweepCell>
cellsOf(const driver::SweepSpec &spec)
{
    std::vector<SweepCell> cells;
    for (auto id : spec.ciphers)
        for (auto v : spec.variants)
            for (const auto &m : spec.models)
                cells.push_back({id, v, m, spec.bytes});
    return cells;
}

/** The fig05_bottlenecks grid: DF, the six DF+one-constraint models, 4W. */
driver::SweepSpec
fig05Spec()
{
    driver::SweepSpec spec;
    spec.ciphers = driver::allCiphers();
    spec.variants = {KernelVariant::BaselineRot};
    spec.models = {MachineConfig::dataflow(),
                   MachineConfig::dfPlusAlias(),
                   MachineConfig::dfPlusBranch(),
                   MachineConfig::dfPlusIssue(),
                   MachineConfig::dfPlusMem(),
                   MachineConfig::dfPlusResources(),
                   MachineConfig::dfPlusWindow(),
                   MachineConfig::fourWide()};
    return spec;
}

Plan
paperGrids()
{
    Plan p;
    p.sweeps = {cellsOf(driver::fig04Spec()), cellsOf(fig05Spec()),
                driver::fig10Cells(), cellsOf(driver::tab02Spec())};
    return p;
}

/**
 * model_dse's machine configs. Each axis gets an equal share of each of
 * its levels, shuffled independently per seed (a Latin-hypercube draw),
 * so every seed replays the same mix of levels in new combinations and
 * the host cost moves little from seed to seed.
 */
std::vector<MachineConfig>
dseConfigs(uint64_t seedIndex)
{
    constexpr size_t n = 48;
    util::Xorshift64 rng(0xD5E5EED0ull + seedIndex);
    auto axis = [&](std::initializer_list<unsigned> levels) {
        std::vector<unsigned> v;
        for (size_t i = 0; i < n; i++)
            v.push_back(levels.begin()[i % levels.size()]);
        for (size_t i = n - 1; i > 0; i--)
            std::swap(v[i], v[rng.nextBelow(i + 1)]);
        return v;
    };
    const auto window = axis({32, 64, 128, 256});
    const auto width = axis({2, 4, 8});
    const auto alus = axis({2, 4, 8});
    const auto rots = axis({1, 2, 4});
    const auto sboxCaches = axis({0, 4});
    const auto l1Kb = axis({8, 16, 32, 64});
    const auto l1Assoc = axis({1, 2, 4});
    const auto l2Kb = axis({256, 512, 1024});
    const auto predictor = axis({512, 2048, 8192});

    std::vector<MachineConfig> configs;
    for (size_t i = 0; i < n; i++) {
        MachineConfig c = MachineConfig::fourWide();
        char name[16];
        std::snprintf(name, sizeof name, "dse-%02zu", i);
        c.name = name;
        c.windowSize = window[i];
        c.issueWidth = c.fetchWidth = width[i];
        c.numIntAlu = alus[i];
        c.numRotUnits = rots[i];
        c.numSboxCaches = sboxCaches[i];
        c.l1d = {l1Kb[i] * 1024, l1Assoc[i], 32};
        c.l2 = {l2Kb[i] * 1024, 4, 32};
        c.predictorEntries = predictor[i];
        if (auto err = sim::validateConfig(c))
            throw std::logic_error("model_dse drew an invalid config: "
                                   + err->message());
        configs.push_back(c);
    }
    return configs;
}

Plan
modelDse(uint64_t seedIndex)
{
    Plan p;
    std::vector<SweepCell> cells;
    const auto configs = dseConfigs(seedIndex);
    for (auto id : {crypto::CipherId::RC4, crypto::CipherId::Rijndael,
                    crypto::CipherId::IDEA})
        for (const auto &m : configs)
            cells.push_back({id, KernelVariant::Optimized, m,
                             driver::session_bytes});
    p.sweeps = {cells};
    return p;
}

/**
 * long_sessions: every Optimized kernel but 3DES at 64 KB, each
 * replayed into 4W only. At 64 KB the 3DES recording alone (about
 * 1.7 s with its gate) would hold each sample's critical path near 2 s;
 * and a second model per kernel makes a worker wait on the recording of
 * the cell it claimed. Either leaves a run too few samples. 3DES stays
 * measured at 4 KB in paper_grids.
 */
Plan
longSessions()
{
    driver::SweepSpec spec;
    for (auto id : driver::allCiphers())
        if (id != crypto::CipherId::TripleDES)
            spec.ciphers.push_back(id);
    spec.variants = {KernelVariant::Optimized};
    spec.models = {MachineConfig::fourWide()};
    spec.bytes = 16 * driver::session_bytes; // 64 KB: 2x the modeled L1
    Plan p;
    p.sweeps = {cellsOf(spec)};
    return p;
}

/** Sessions per ssl_server simulation; 12 cells make one sample. */
constexpr uint64_t ssl_sessions = 100000;

/** Figure 6 key-setup estimate at the measured IPC (as server_scale). */
double
setupCycles(crypto::CipherId id, double ipc)
{
    const auto &info = crypto::cipherInfo(id);
    uint64_t insts = info.isStream
        ? crypto::makeStreamCipher(id)->setupOpEstimate()
        : crypto::makeBlockCipher(id)->setupOpEstimate();
    return static_cast<double>(insts) / (ipc > 0 ? ipc : 1.0);
}

/**
 * ssl_server's set-up, as server_scale does it: the handshake
 * measurement, then a probe sweep at two lengths whose marginal slope
 * and intercept give each (cipher, model)'s bulk rate and prologue.
 */
Plan
sslServer(uint64_t seedIndex, unsigned threads, double &handshakeSeconds)
{
    constexpr size_t probe_lo = 2048, probe_hi = 4096;
    const std::vector<crypto::CipherId> ciphers = {
        crypto::CipherId::TripleDES, crypto::CipherId::RC4,
        crypto::CipherId::Blowfish};
    const std::vector<MachineConfig> models = {
        MachineConfig::fourWide(), MachineConfig::fourWidePlus(),
        MachineConfig::eightWidePlus(), MachineConfig::dataflow()};

    ssl::SessionModelParams costs;
    const auto t_hs = Clock::now();
    const auto ops = ssl::measureHandshakeOps(costs.rsaBits);
    handshakeSeconds = secondsSince(t_hs);

    std::vector<SweepCell> probes;
    for (auto id : ciphers)
        for (const auto &m : models)
            for (size_t bytes : {probe_lo, probe_hi})
                probes.push_back({id, KernelVariant::BaselineRot, m, bytes});
    driver::resetExecBackendGate();
    driver::SweepOptions opts;
    opts.threads = threads;
    const auto res = driver::runCells(probes, opts);

    Plan p;
    p.params.sessions = ssl_sessions;
    p.params.seed = seedIndex;
    for (size_t i = 0; i < probes.size(); i += 2) {
        const auto &lo = res[i];
        const auto &hi = res[i + 1];
        if (!lo.ok() || !hi.ok())
            throw std::runtime_error("ssl_server probe failed: "
                                     + cellLabel(probes[i]));
        ssl::ServerRates r;
        r.cipher = probes[i].cipher;
        r.model = probes[i].model.name;
        r.serverHandshakeCycles =
            static_cast<double>(ops.serverMulOps) * costs.cyclesPerWordMul;
        r.clientHandshakeCycles =
            static_cast<double>(ops.clientMulOps) * costs.cyclesPerWordMul;
        r.cyclesPerByte =
            static_cast<double>(hi.stats.cycles - lo.stats.cycles)
            / static_cast<double>(probe_hi - probe_lo);
        r.prologueCycles = static_cast<double>(lo.stats.cycles)
            - r.cyclesPerByte * static_cast<double>(probe_lo);
        r.keySetupCycles = setupCycles(r.cipher, hi.stats.ipc());
        r.requestOverheadCycles = costs.requestOverheadCycles;
        r.perByteOverheadCycles = costs.perByteOverheadCycles;
        p.rates.push_back(r);
    }
    return p;
}

/**
 * Build each distinct kernel of the plan once: the first kernel builds
 * fill the per-process cipher tables (Blowfish's pi digits among them)
 * that every later recording reuses.
 */
void
warmKernels(const Plan &plan)
{
    std::set<std::tuple<int, int, size_t>> seen;
    for (const auto &cells : plan.sweeps)
        for (const auto &c : cells) {
            if (!seen.emplace(static_cast<int>(c.cipher),
                              static_cast<int>(c.variant), c.bytes)
                     .second)
                continue;
            auto w = driver::makeWorkload(c.cipher, c.bytes);
            kernels::buildKernel(c.cipher, c.variant, w.key, w.iv, c.bytes);
        }
}

struct Setup
{
    Plan plan;
    double seconds = 0;
    double handshakeSeconds = 0;
};

Setup
setUp(const std::string &workload, uint64_t seedIndex, unsigned threads)
{
    Setup s;
    const auto t0 = Clock::now();
    if (workload == "paper_grids")
        s.plan = paperGrids();
    else if (workload == "model_dse")
        s.plan = modelDse(seedIndex);
    else if (workload == "long_sessions")
        s.plan = longSessions();
    else if (workload == "ssl_server")
        s.plan = sslServer(seedIndex, threads, s.handshakeSeconds);
    else
        throw std::invalid_argument("unknown workload " + workload);
    warmKernels(s.plan);
    s.seconds = secondsSince(t0);
    return s;
}

// ---------------------------------------------------------------------
// Untraced samples
// ---------------------------------------------------------------------

struct Sample
{
    double wall = 0;
    double cpu = 0;
    /**
     * Over the sample's parallel calls, the share of the vCPU time
     * open to the workers that went unused: idle / (idle + cpu), with
     * idle the machine's idle time on the workers' share of its vCPUs.
     * vCPU time that other processes or the host (steal) took is
     * neither, so contention does not read as workers waiting.
     */
    double idleFrac = 0;
    /** vCPU-seconds of that share other processes or steal took. */
    double others = 0;
    uint64_t instructions = 0;  ///< simulated instructions, ok cells
    uint64_t sessions = 0;      ///< simulated sessions completed
    uint64_t functionalRuns = 0;
    uint64_t gateChecks = 0;
    uint64_t gateFallbacks = 0;
    std::vector<std::string> results; ///< one per cell, plan order
};

Sample
runSample(const Plan &plan, unsigned threads)
{
    Sample s;
    const uint64_t runs0 = driver::functionalRuns();
    const uint64_t checks0 = driver::backendGateChecks();
    const uint64_t fallbacks0 = driver::backendGateFallbacks();
    double callWall = 0, callCpu = 0;
    MachineTimes callMachine;
    // Wall, process CPU and machine times around one parallel call.
    auto measure = [&](auto &&call) {
        const auto tc = Clock::now();
        const double cc = cpuSeconds();
        const MachineTimes mc = machineTimes();
        auto out = call();
        const MachineTimes m = machineTimes();
        callWall += secondsSince(tc);
        callCpu += cpuSeconds() - cc;
        callMachine.idle += m.idle - mc.idle;
        callMachine.busy += m.busy - mc.busy;
        return out;
    };
    const auto t0 = Clock::now();
    const double c0 = cpuSeconds();

    for (const auto &cells : plan.sweeps) {
        // Gate verdicts last for the whole process; a user pays the
        // gate on every sweep because each bench binary is a fresh
        // process.
        driver::resetExecBackendGate();
        driver::SweepOptions opts;
        opts.threads = threads;
        const auto results =
            measure([&] { return driver::runCells(cells, opts); });
        for (const auto &r : results) {
            s.results.push_back(cellResult(r));
            if (r.ok()) {
                s.instructions += r.stats.instructions;
                s.sessions++;
            }
        }
    }
    if (!plan.rates.empty()) {
        const auto sims = measure([&] {
            return ssl::runServerSims(plan.rates, plan.params, threads);
        });
        for (size_t i = 0; i < sims.size(); i++) {
            s.results.push_back(serverResult(sims[i]));
            s.sessions += sims[i].sessions;
        }
    }

    s.wall = secondsSince(t0);
    s.cpu = cpuSeconds() - c0;
    // The workers can use `threads` of the machine's vCPUs.
    const double share = std::min(
        1.0, static_cast<double>(threads)
                 / std::max(std::thread::hardware_concurrency(), 1u));
    const double idle = callMachine.idle + callMachine.busy > 0
        ? share * callMachine.idle
        : threads * callWall - callCpu; // no /proc/stat: assume no others
    s.idleFrac = idle + callCpu > 0 ? idle / (idle + callCpu) : 0;
    s.others = std::max(share * callMachine.busy - callCpu, 0.0);
    s.functionalRuns = driver::functionalRuns() - runs0;
    s.gateChecks = driver::backendGateChecks() - checks0;
    s.gateFallbacks = driver::backendGateFallbacks() - fallbacks0;
    return s;
}

// ---------------------------------------------------------------------
// Traced samples
// ---------------------------------------------------------------------

/** In-memory span log, written out when the run ends. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        long cell = -1;
    };

    int
    open(std::string name, int parent, long cell = -1)
    {
        spans_.push_back({std::move(name), now(), -1, parent, cell});
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int span) { spans_[span].end = now(); }

    /** A span whose interval was measured elsewhere (RecordTiming). */
    void
    add(std::string name, int parent, long cell, double start, double end)
    {
        spans_.push_back({std::move(name), start, end, parent, cell});
    }

    double start(int span) const { return spans_[span].start; }
    double duration(int span) const
    {
        return spans_[span].end - spans_[span].start;
    }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Counts taken at the traced boundaries. */
struct TracedCounts
{
    uint64_t recordings = 0;
    uint64_t recordedInsts = 0;
    uint64_t storedBytes = 0;
    uint64_t compressAttempted = 0;
    uint64_t compressAccepted = 0;
    uint64_t replayedInsts = 0;
    /** Decode share of the replays: per replay, its trace's decode time. */
    double decodeInReplaySeconds = 0;
    uint64_t cycles = 0;
    uint64_t stallCycles = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Misses = 0;
    uint64_t mispredicts = 0;
    uint64_t sboxCacheMisses = 0;
    uint64_t sslSessions = 0;
};

struct TracedSample
{
    double wall = 0;
    TracedCounts counts;
    std::vector<std::string> results;
};

/** A recorded kernel, kept for the decode probe after its sweep. */
struct TracedGroup
{
    driver::RecordedTrace trace;
    bool ok = false;
    uint64_t replays = 0;
};

class NullSink final : public isa::TraceSink
{
  public:
    void emit(const isa::DynInst &) override {}
};

/**
 * One sweep the way runCells executes it on one thread — cells in
 * order, each kernel recorded at its group's first cell and replayed
 * per cell — with a span around each call into a layer. RecordTiming's
 * disjoint phases become child spans of the recordKernelTrace span.
 * The sweep itself is a root span tagged with the sample index; its
 * self time is the harness's own loop, which no layer covers.
 */
void
tracedSweep(const std::vector<SweepCell> &cells, long cellBase,
            Tracer &tr, long sampleIndex, TracedSample &s,
            std::vector<std::unique_ptr<TracedGroup>> &keep)
{
    driver::resetExecBackendGate();
    const int call = tr.open("driver.runCells", -1, sampleIndex);
    std::map<std::tuple<int, int, size_t>, TracedGroup *> groups;
    for (size_t i = 0; i < cells.size(); i++) {
        const SweepCell &c = cells[i];
        const long id = cellBase + static_cast<long>(i);
        auto key = std::make_tuple(static_cast<int>(c.cipher),
                                   static_cast<int>(c.variant), c.bytes);
        TracedGroup *&g = groups[key];
        if (!g) {
            keep.push_back(std::make_unique<TracedGroup>());
            g = keep.back().get();
            driver::RecordTiming t;
            const int rec = tr.open("driver.recordKernelTrace", call, id);
            try {
                g->trace = driver::recordKernelTrace(
                    c.cipher, c.variant, c.bytes,
                    kernels::KernelDirection::Encrypt, &t);
                g->ok = true;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "cryptbench: recording %s: %s\n",
                             cellLabel(c).c_str(), e.what());
            }
            tr.close(rec);
            double at = tr.start(rec);
            for (auto [name, secs] :
                 {std::pair{"kernels.build", t.setupSeconds},
                  std::pair{"driver.gate", t.gateSeconds},
                  std::pair{"isa.decode", t.decodeSeconds},
                  std::pair{"isa.record", t.recordSeconds},
                  std::pair{"verify.oracle", t.verifySeconds},
                  std::pair{"isa.compress", t.compressSeconds}}) {
                tr.add(name, rec, id, at, at + secs);
                at += secs;
            }
            if (g->ok) {
                s.counts.recordings++;
                s.counts.recordedInsts += g->trace.instructions();
                s.counts.storedBytes += g->trace.storedBytes();
                const auto outcome = g->trace.compressOutcome();
                if (outcome != driver::CompressOutcome::NotAttempted)
                    s.counts.compressAttempted++;
                if (outcome == driver::CompressOutcome::Accepted)
                    s.counts.compressAccepted++;
            }
        }

        driver::SweepResult r;
        r.cipher = c.cipher;
        r.variant = c.variant;
        r.model = c.model.name;
        r.bytes = c.bytes;
        bool ok = g->ok;
        if (ok) {
            const int rep = tr.open("sim.replay", call, id);
            try {
                r.stats = g->trace.replay(c.model);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "cryptbench: replaying %s: %s\n",
                             cellLabel(c).c_str(), e.what());
                ok = false;
            }
            tr.close(rep);
        }
        if (!ok) {
            s.results.push_back("null");
            continue;
        }
        g->replays++;
        s.results.push_back(cellResult(r));
        const sim::SimStats &st = r.stats;
        s.counts.replayedInsts += st.instructions;
        s.counts.cycles += st.cycles;
        s.counts.stallCycles += st.totalStallCycles();
        s.counts.l1Misses += st.l1.misses;
        s.counts.l2Misses += st.l2.misses;
        s.counts.mispredicts += st.mispredicts;
        s.counts.sboxCacheMisses += st.sboxCacheMisses;
    }
    tr.close(call);
    s.wall += tr.duration(call);
}

/**
 * One traced sample: a root span per call the sample makes (each
 * sweep, then the ssl simulations), all tagged with the sample index.
 * Between roots, outside the sample's time, the decode probe replays
 * the sweep's recordings into a sink that does nothing; then the
 * recordings are freed, as runCells frees them when it returns.
 */
TracedSample
runTraced(const Plan &plan, Tracer &tr, long sampleIndex)
{
    TracedSample s;
    long base = 0;
    for (const auto &cells : plan.sweeps) {
        std::vector<std::unique_ptr<TracedGroup>> groups;
        tracedSweep(cells, base, tr, sampleIndex, s, groups);
        base += static_cast<long>(cells.size());

        const int probe = tr.open("probe", -1, sampleIndex);
        for (const auto &g : groups) {
            if (!g->ok)
                continue;
            NullSink sink;
            const int dec = tr.open("isa.trace_decode", probe);
            g->trace.replay(sink);
            tr.close(dec);
            s.counts.decodeInReplaySeconds +=
                tr.duration(dec) * static_cast<double>(g->replays);
        }
        tr.close(probe);
    }
    if (!plan.rates.empty()) {
        const int call = tr.open("ssl.runServerSims", -1, sampleIndex);
        for (size_t i = 0; i < plan.rates.size(); i++) {
            const long id = base + static_cast<long>(i);
            const int sim = tr.open("ssl.server_sim", call, id);
            const auto res = ssl::runServerSim(plan.rates[i], plan.params);
            tr.close(sim);
            s.results.push_back(serverResult(res));
            s.counts.sslSessions += res.sessions;
        }
        tr.close(call);
        s.wall += tr.duration(call);
    }
    return s;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
printResults(const std::vector<std::string> &results)
{
    std::printf("[");
    for (size_t i = 0; i < results.size(); i++)
        std::printf("%s%s", i ? "," : "", results[i].c_str());
    std::printf("]");
}

void
printSample(const Sample &s)
{
    std::printf("{\"wall_s\":%.9g,\"cpu_s\":%.9g,\"idle_frac\":%.6g,"
                "\"others_s\":%.6g,\"instructions\":%llu,\"sessions\":%llu,"
                "\"functional_runs\":%llu,\"gate_checks\":%llu,"
                "\"gate_fallbacks\":%llu,\"results\":",
                s.wall, s.cpu, s.idleFrac, s.others,
                static_cast<unsigned long long>(s.instructions),
                static_cast<unsigned long long>(s.sessions),
                static_cast<unsigned long long>(s.functionalRuns),
                static_cast<unsigned long long>(s.gateChecks),
                static_cast<unsigned long long>(s.gateFallbacks));
    printResults(s.results);
    std::printf("}");
}

void
printTraced(const TracedSample &s)
{
    const TracedCounts &k = s.counts;
    std::printf(
        "{\"wall_s\":%.9g,\"recordings\":%llu,"
        "\"recorded_insts\":%llu,\"stored_bytes\":%llu,"
        "\"compress_attempted\":%llu,\"compress_accepted\":%llu,"
        "\"replayed_insts\":%llu,\"decode_in_replay_s\":%.9g,"
        "\"cycles\":%llu,\"stall_cycles\":%llu,\"l1_misses\":%llu,"
        "\"l2_misses\":%llu,\"mispredicts\":%llu,"
        "\"sbox_cache_misses\":%llu,\"ssl_sessions\":%llu,\"results\":",
        s.wall, static_cast<unsigned long long>(k.recordings),
        static_cast<unsigned long long>(k.recordedInsts),
        static_cast<unsigned long long>(k.storedBytes),
        static_cast<unsigned long long>(k.compressAttempted),
        static_cast<unsigned long long>(k.compressAccepted),
        static_cast<unsigned long long>(k.replayedInsts),
        k.decodeInReplaySeconds, static_cast<unsigned long long>(k.cycles),
        static_cast<unsigned long long>(k.stallCycles),
        static_cast<unsigned long long>(k.l1Misses),
        static_cast<unsigned long long>(k.l2Misses),
        static_cast<unsigned long long>(k.mispredicts),
        static_cast<unsigned long long>(k.sboxCacheMisses),
        static_cast<unsigned long long>(k.sslSessions));
    printResults(s.results);
    std::printf("}");
}

std::vector<std::string>
planLabels(const Plan &plan)
{
    std::vector<std::string> labels;
    for (const auto &cells : plan.sweeps)
        for (const auto &c : cells)
            labels.push_back(cellLabel(c));
    for (const auto &r : plan.rates)
        labels.push_back("ssl/" + crypto::cipherInfo(r.cipher).name + "/"
                         + r.model);
    return labels;
}

struct Args
{
    std::string workload;
    std::string mode;
    uint64_t seed = 0;
    double seconds = 0;
    unsigned threads = 1;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--mode")
            a.mode = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (flag == "--threads")
            a.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.mode != "setup" && a.mode != "timed" && a.mode != "traced")
        throw std::invalid_argument("--mode must be setup|timed|traced");
    if (a.threads == 0)
        throw std::invalid_argument("--threads must be at least 1");
    return a;
}

int
run(const Args &a)
{
    const uint64_t seedIndex = a.seed % seed_space;
    const Setup setup = setUp(a.workload, seedIndex, a.threads);

    std::printf("{\"build_type\":\"%s\",\"cxx_flags\":\"%s\","
                "\"compiler\":\"%s\",\"seed_index\":%llu,"
                "\"setup_s\":%.9g,\"handshake_s\":%.9g",
                CRYPTBENCH_BUILD_TYPE, CRYPTBENCH_CXX_FLAGS,
                CRYPTBENCH_COMPILER,
                static_cast<unsigned long long>(seedIndex), setup.seconds,
                setup.handshakeSeconds);
    if (a.mode == "setup") {
        std::printf("}\n");
        return 0;
    }

    std::printf(",\"labels\":[");
    const auto labels = planLabels(setup.plan);
    for (size_t i = 0; i < labels.size(); i++)
        std::printf("%s\"%s\"", i ? "," : "", labels[i].c_str());
    std::printf("]");

    const auto t0 = Clock::now();
    if (a.mode == "timed") {
        std::printf(",\"samples\":[");
        for (int n = 0; n == 0 || secondsSince(t0) < a.seconds; n++) {
            if (n)
                std::printf(",");
            printSample(runSample(setup.plan, a.threads));
        }
        std::printf("]");
    } else {
        // util.pi_s: the Blowfish table generation on its own, best of 3.
        double pi = 1e9;
        for (int i = 0; i < 3; i++) {
            const auto tp = Clock::now();
            util::piFractionWords(18 + 4 * 256);
            pi = std::min(pi, secondsSince(tp));
        }
        std::printf(",\"pi_s\":%.9g,\"rounds\":[", pi);
        Tracer tr;
        // The single-thread pass right after the parallel one runs
        // slower (by up to a tenth on paper_grids on a 4-vCPU VM), so
        // the overhead is taken over pairs of rounds with both orders.
        for (long n = 0; n % 2 || n < 2 || secondsSince(t0) < a.seconds;
             n++) {
            const Sample parallel = runSample(setup.plan, a.threads);
            Sample serial;
            TracedSample traced;
            if (n % 2 == 0)
                serial = runSample(setup.plan, 1);
            traced = runTraced(setup.plan, tr, n);
            if (n % 2 == 1)
                serial = runSample(setup.plan, 1);
            std::printf("%s{\"parallel\":", n ? "," : "");
            printSample(parallel);
            std::printf(",\"serial\":");
            printSample(serial);
            std::printf(",\"traced\":");
            printTraced(traced);
            std::printf("}");
        }
        std::printf("],\"spans\":[");
        const auto &spans = tr.spans();
        for (size_t i = 0; i < spans.size(); i++) {
            const auto &sp = spans[i];
            std::printf("%s[\"%s\",%.9f,%.9f,%d,%ld]", i ? "," : "",
                        sp.name.c_str(), sp.start, sp.end, sp.parent,
                        sp.cell);
        }
        std::printf("]");
    }
    std::printf(",\"peak_rss_mb\":%.6g}\n", peakRssMb());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cryptbench: %s\n", e.what());
        return 1;
    }
}
