/** @file Tests for the server-at-scale SSL workload simulation. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "ssl/server.hh"

namespace
{

using namespace cryptarch;
using ssl::ServerRates;
using ssl::ServerSimParams;
using ssl::ServerSimResult;

// Hand-filled rates (no simulator runs): a 3DES-like bulk cipher and a
// Blowfish-like key-agility outlier, so the tests are fast and the
// expectations explicit.
ServerRates
desLikeRates()
{
    ServerRates r;
    r.cipher = crypto::CipherId::TripleDES;
    r.model = "4W";
    r.serverHandshakeCycles = 5e6;
    r.clientHandshakeCycles = 1e5;
    r.keySetupCycles = 50e3;
    r.prologueCycles = 800;
    r.cyclesPerByte = 100;
    return r;
}

ServerRates
blowfishLikeRates()
{
    ServerRates r = desLikeRates();
    r.cipher = crypto::CipherId::Blowfish;
    r.keySetupCycles = 10e6; // the Figure 6 outlier
    r.cyclesPerByte = 60;
    return r;
}

ServerSimParams
smallParams()
{
    ServerSimParams p;
    p.sessions = 20000;
    p.loadFactors = {0.5, 0.9, 1.2};
    return p;
}

void
expectIdentical(const ServerSimResult &a, const ServerSimResult &b)
{
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_EQ(a.chainDigest, b.chainDigest);
    EXPECT_EQ(a.meanServiceCycles, b.meanServiceCycles);
    EXPECT_EQ(a.meanSessionBytes, b.meanSessionBytes);
    EXPECT_EQ(a.meanRequests, b.meanRequests);
    EXPECT_EQ(a.resumedShare, b.resumedShare);
    EXPECT_EQ(a.handshakeFraction, b.handshakeFraction);
    EXPECT_EQ(a.setupFraction, b.setupFraction);
    EXPECT_EQ(a.bulkFraction, b.bulkFraction);
    EXPECT_EQ(a.otherFraction, b.otherFraction);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); i++) {
        EXPECT_EQ(a.points[i].loadFactor, b.points[i].loadFactor);
        EXPECT_EQ(a.points[i].offeredPerGcycle,
                  b.points[i].offeredPerGcycle);
        EXPECT_EQ(a.points[i].achievedPerGcycle,
                  b.points[i].achievedPerGcycle);
        EXPECT_EQ(a.points[i].utilization, b.points[i].utilization);
        EXPECT_EQ(a.points[i].p50Cycles, b.points[i].p50Cycles);
        EXPECT_EQ(a.points[i].p95Cycles, b.points[i].p95Cycles);
        EXPECT_EQ(a.points[i].p99Cycles, b.points[i].p99Cycles);
        EXPECT_EQ(a.points[i].meanCycles, b.points[i].meanCycles);
    }
}

// The server_scale grid shape: 3 ciphers x 4 machine models, each
// model with its own bulk rate, key setup and prologue.
std::vector<ServerRates>
modelGrid()
{
    std::vector<ServerRates> rates;
    for (auto id : {crypto::CipherId::TripleDES, crypto::CipherId::RC4,
                    crypto::CipherId::Blowfish}) {
        for (int m = 0; m < 4; m++) {
            ServerRates r = desLikeRates();
            r.cipher = id;
            r.model = "M" + std::to_string(m);
            r.cyclesPerByte = 100.0 / (m + 1);
            r.keySetupCycles = 50e3 / (m + 1);
            r.prologueCycles = 800.0 - 100 * m;
            rates.push_back(r);
        }
    }
    return rates;
}

TEST(ServerSim, DeterministicAcrossRuns)
{
    auto a = ssl::runServerSim(desLikeRates(), smallParams());
    auto b = ssl::runServerSim(desLikeRates(), smallParams());
    expectIdentical(a, b);
}

// The grid runner's determinism contract: bit-identical results for
// any worker-thread count (the acceptance criterion BENCH_server.json
// inherits).
TEST(ServerSim, DeterministicAcrossThreadCounts)
{
    std::vector<ServerRates> rates;
    for (int i = 0; i < 6; i++)
        rates.push_back(i % 2 ? blowfishLikeRates() : desLikeRates());
    auto params = smallParams();
    auto serial = ssl::runServerSims(rates, params, 1);
    auto parallel = ssl::runServerSims(rates, params, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++)
        expectIdentical(serial[i], parallel[i]);
}

// Models of one cipher share one population: a single grid call must
// give every cell exactly what simulating it alone gives.
TEST(ServerSim, GridMatchesCellsAlone)
{
    const auto rates = modelGrid();
    const auto params = smallParams();
    const auto grid = ssl::runServerSims(rates, params, 4);
    ASSERT_EQ(grid.size(), rates.size());
    for (size_t k = 0; k < rates.size(); k++) {
        SCOPED_TRACE(rates[k].model + " cell " + std::to_string(k));
        expectIdentical(grid[k], ssl::runServerSim(rates[k], params));
    }
}

// The chain digest depends on the cipher and the population only, so
// every model of a cipher reports the same one, and the three ciphers
// report three different ones.
TEST(ServerSim, SharedCipherReportsOneDigest)
{
    auto params = smallParams();
    params.loadFactors = {0.5};
    const auto grid = ssl::runServerSims(modelGrid(), params, 3);
    ASSERT_EQ(grid.size(), 12u);
    for (size_t c = 0; c < 3; c++) {
        for (size_t m = 1; m < 4; m++)
            EXPECT_EQ(grid[4 * c + m].chainDigest, grid[4 * c].chainDigest)
                << "cipher " << c << " model " << m;
        EXPECT_NE(grid[4 * c].chainDigest,
                  grid[4 * ((c + 1) % 3)].chainDigest);
    }
}

// The chain pass runs in chunks of 4096 sessions. Populations of one
// session and of one session either side of a chunk boundary must give
// the digest of one sequential walk over all sessions (the pinned
// values), and identical results at any thread count.
TEST(ServerSim, ChunkBoundariesKeepSequentialDigest)
{
    struct Case
    {
        crypto::CipherId cipher;
        uint64_t sessions;
        uint64_t digest;
    };
    const Case cases[] = {
        {crypto::CipherId::TripleDES, 1, 0x6e0e40efdffe461full},
        {crypto::CipherId::TripleDES, 4095, 0xa16c2b508c6fa629ull},
        {crypto::CipherId::TripleDES, 4097, 0xa4096b54596fbcafull},
        {crypto::CipherId::RC4, 1, 0x41922e102a5ba78cull},
        {crypto::CipherId::RC4, 4095, 0xede21d79088db98aull},
        {crypto::CipherId::RC4, 4097, 0xa0d341c285b6edbaull},
        {crypto::CipherId::Blowfish, 4095, 0xf23d639672511ae9ull},
        {crypto::CipherId::Blowfish, 4097, 0xd841a4fc544b4fc4ull},
    };
    for (const auto &c : cases) {
        ServerRates r = desLikeRates();
        r.cipher = c.cipher;
        ServerRates other = r;
        other.cyclesPerByte = 10;
        auto params = smallParams();
        params.sessions = c.sessions;
        params.loadFactors = {0.5, 1.2};
        const auto alone = ssl::runServerSim(r, params);
        EXPECT_EQ(alone.chainDigest, c.digest)
            << crypto::cipherInfo(c.cipher).name << " x " << c.sessions;
        for (unsigned threads : {1u, 3u, 4u}) {
            SCOPED_TRACE(crypto::cipherInfo(c.cipher).name + " x "
                         + std::to_string(c.sessions) + " sessions, "
                         + std::to_string(threads) + " threads");
            const auto grid =
                ssl::runServerSims({r, other}, params, threads);
            expectIdentical(grid[0], alone);
            EXPECT_EQ(grid[1].chainDigest, c.digest);
        }
    }
}

// Degenerate shapes are refused up front with the field named, instead
// of crashing (no sessions or cores), hitting undefined behaviour
// (an inverted byte clamp) or producing NaN curves.
TEST(ServerSim, RejectsDegenerateParams)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto expectRejected = [](const ServerSimParams &p,
                             const std::string &field) {
        try {
            ssl::runServerSims({desLikeRates()}, p, 2);
            ADD_FAILURE() << field << ": accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    };
    auto p = smallParams();
    p.sessions = 0;
    expectRejected(p, "sessions");
    p = smallParams();
    p.servers = 0;
    expectRejected(p, "servers");
    p = smallParams();
    p.minBytes = 4096;
    p.maxBytes = 256;
    expectRejected(p, "minBytes");
    for (double load : {0.0, -0.5, nan, inf}) {
        p = smallParams();
        p.loadFactors = {0.5, load};
        expectRejected(p, "loadFactors");
    }
    p = smallParams();
    p.meanRequestsPerSession = nan;
    expectRejected(p, "meanRequestsPerSession");
    p = smallParams();
    p.log2MedianBytes = inf;
    expectRejected(p, "log2MedianBytes");

    // The single-cell entry point shares the check.
    p = smallParams();
    p.servers = 0;
    EXPECT_THROW(ssl::runServerSim(desLikeRates(), p),
                 std::invalid_argument);
    // A one-session, one-core population is small, not degenerate.
    p = smallParams();
    p.sessions = 1;
    p.servers = 1;
    EXPECT_EQ(ssl::runServerSim(desLikeRates(), p).points.size(), 3u);
}

TEST(ServerSim, FractionsSumToOne)
{
    auto r = ssl::runServerSim(desLikeRates(), smallParams());
    EXPECT_NEAR(r.handshakeFraction + r.setupFraction + r.bulkFraction
                    + r.otherFraction,
                1.0, 1e-9);
    EXPECT_GT(r.handshakeFraction, 0.0);
    EXPECT_GT(r.setupFraction, 0.0);
    EXPECT_GT(r.bulkFraction, 0.0);
    EXPECT_GT(r.otherFraction, 0.0);
    // Log-normal with an 8 KB median and heavy right tail: the mean
    // lands above the median but well under the 1 MB clamp.
    EXPECT_GT(r.meanSessionBytes, 8000.0);
    EXPECT_LT(r.meanSessionBytes, 40000.0);
    EXPECT_GE(r.meanRequests, 1.0);
}

TEST(ServerSim, LatencyPercentilesGrowWithLoad)
{
    auto r = ssl::runServerSim(desLikeRates(), smallParams());
    ASSERT_EQ(r.points.size(), 3u);
    for (const auto &pt : r.points) {
        EXPECT_LE(pt.p50Cycles, pt.p95Cycles);
        EXPECT_LE(pt.p95Cycles, pt.p99Cycles);
        EXPECT_GT(pt.p50Cycles, 0.0);
    }
    EXPECT_LT(r.points[0].p99Cycles, r.points[1].p99Cycles);
    EXPECT_LT(r.points[1].p99Cycles, r.points[2].p99Cycles);
}

TEST(ServerSim, SaturationCapsAchievedThroughput)
{
    auto r = ssl::runServerSim(desLikeRates(), smallParams());
    const auto &light = r.points[0];   // load 0.5
    const auto &beyond = r.points[2];  // load 1.2
    // Below saturation the server keeps up with the offered rate.
    EXPECT_NEAR(light.achievedPerGcycle / light.offeredPerGcycle, 1.0,
                0.05);
    // Past saturation throughput pins at capacity: achieved stays well
    // under offered while the cores run essentially flat out.
    EXPECT_LT(beyond.achievedPerGcycle, 0.92 * beyond.offeredPerGcycle);
    EXPECT_GT(beyond.utilization, 0.95);
}

// Key agility as a first-class axis: the Figure 6 Blowfish setup cost
// must surface as a dominant per-session fraction.
TEST(ServerSim, KeySetupCostIsFirstClass)
{
    auto des = ssl::runServerSim(desLikeRates(), smallParams());
    auto bf = ssl::runServerSim(blowfishLikeRates(), smallParams());
    EXPECT_GT(bf.setupFraction, 5 * des.setupFraction);
    EXPECT_GT(bf.setupFraction, 0.2);
    EXPECT_GT(bf.meanServiceCycles, des.meanServiceCycles);
}

// Session resumption shifts the breakdown toward key setup: resumed
// sessions skip the RSA private op but still pay the full key
// schedule, so a hot session cache is exactly where the Figure 6
// outlier dominates the handshake work that remains.
TEST(ServerSim, ResumptionMakesKeySetupDominant)
{
    auto params = smallParams();
    params.loadFactors = {0.5};
    params.resumedFraction = 0.0;
    auto cold = ssl::runServerSim(blowfishLikeRates(), params);
    params.resumedFraction = 0.9;
    auto hot = ssl::runServerSim(blowfishLikeRates(), params);
    EXPECT_NEAR(cold.resumedShare, 0.0, 1e-9);
    EXPECT_NEAR(hot.resumedShare, 0.9, 0.02);
    EXPECT_GT(hot.setupFraction, 1.2 * cold.setupFraction);
    EXPECT_LT(hot.handshakeFraction, cold.handshakeFraction);
    EXPECT_LT(hot.meanServiceCycles, cold.meanServiceCycles);
}

// The chain digest is a function of the chain cipher: different bulk
// ciphers produce different digests over the identical population, and
// the stream-cipher path (RC4) works too.
TEST(ServerSim, ChainDigestTracksCipher)
{
    auto params = smallParams();
    params.loadFactors = {0.5}; // digest is load-independent
    auto des = ssl::runServerSim(desLikeRates(), params);
    auto bf = ssl::runServerSim(blowfishLikeRates(), params);
    ServerRates rc4 = desLikeRates();
    rc4.cipher = crypto::CipherId::RC4;
    auto stream = ssl::runServerSim(rc4, params);
    EXPECT_NE(des.chainDigest, bf.chainDigest);
    EXPECT_NE(des.chainDigest, stream.chainDigest);
    EXPECT_NE(des.chainDigest, 0u);
}

} // namespace
