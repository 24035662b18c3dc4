/**
 * @file
 * Crash-safe sweep layer tests: process isolation reproduces the
 * thread pool's results byte for byte, host-level faults (worker
 * death, hangs) cost exactly the faulted cell, and the checkpoint
 * journal resumes killed sweeps — while rejecting corrupt or
 * mismatched journal files with typed errors instead of trusting
 * them.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/json.hh"
#include "driver/procpool.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"
#include "isa/packed_trace.hh"
#include "util/bytes.hh"
#include "util/checksum.hh"

namespace
{

using namespace cryptarch;
using driver::CellOutcome;
using driver::JournalError;
using driver::JournalErrorKind;
using driver::RecordStatus;
using driver::SweepCell;
using driver::SweepJournal;
using driver::SweepOptions;
using driver::SweepResult;
using kernels::KernelVariant;
using sim::MachineConfig;

/** Arms CRYPTARCH_SWEEP_CHAOS for one scope. */
class ChaosGuard
{
  public:
    explicit ChaosGuard(const std::string &spec)
    {
        ::setenv("CRYPTARCH_SWEEP_CHAOS", spec.c_str(), 1);
    }
    ~ChaosGuard() { ::unsetenv("CRYPTARCH_SWEEP_CHAOS"); }
};

/** A cheap 4-cell grid: two RC4 kernels x two models. */
std::vector<SweepCell>
smallGrid()
{
    return {
        {crypto::CipherId::RC4, KernelVariant::Optimized,
         MachineConfig::fourWide(), 512},
        {crypto::CipherId::RC4, KernelVariant::Optimized,
         MachineConfig::dataflow(), 512},
        {crypto::CipherId::Blowfish, KernelVariant::Optimized,
         MachineConfig::fourWide(), 512},
        {crypto::CipherId::Blowfish, KernelVariant::Optimized,
         MachineConfig::dataflow(), 512},
    };
}

SweepOptions
processOptions()
{
    SweepOptions opts;
    opts.isolation = driver::SweepIsolation::Process;
    return opts;
}

std::string
benchJsonString(const std::vector<SweepResult> &results,
                const std::string &tag)
{
    std::string path = ::testing::TempDir() + "BENCH_pp_" + tag + ".json";
    driver::writeBenchJson(path, "procpool", results);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
}

std::vector<uint8_t>
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string s = buf.str();
    return {s.begin(), s.end()};
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** A result whose every payload section is non-empty. */
SweepResult
sampleResult()
{
    SweepResult r;
    r.cipher = crypto::CipherId::RC4;
    r.variant = KernelVariant::Optimized;
    r.model = "4W";
    r.bytes = 512;
    r.outcome = CellOutcome::Trapped;
    r.message = "trap: oob @ 0x42";
    r.worker = 3;
    r.stats.model = "4W";
    r.stats.instructions = 12345;
    r.stats.cycles = 6789;
    r.stats.loads = 42;
    r.stats.sboxCaches.push_back({100, 7});
    r.stats.l1 = {1000, 11};
    r.stats.classCounts[2] = 99;
    r.stats.stallCycles[1] = 55;
    r.stats.stallByClass[2][1] = 33;
    return r;
}

JournalErrorKind
openKind(SweepJournal &j, const std::string &path, uint64_t fp,
         uint64_t count)
{
    try {
        j.open(path, fp, count);
    } catch (const JournalError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "journal open unexpectedly succeeded";
    return JournalErrorKind::Io;
}

TEST(ProcPool, ProcessModeMatchesThreadModeByteForByte)
{
    auto cells = smallGrid();
    SweepOptions threadOpts;
    auto threadResults = driver::runCells(cells, threadOpts);
    auto processResults = driver::runCells(cells, processOptions());

    ASSERT_EQ(processResults.size(), threadResults.size());
    for (size_t i = 0; i < threadResults.size(); i++) {
        EXPECT_EQ(processResults[i].outcome, threadResults[i].outcome);
        EXPECT_EQ(processResults[i].stats.cycles,
                  threadResults[i].stats.cycles);
        EXPECT_EQ(processResults[i].stats.instructions,
                  threadResults[i].stats.instructions);
        // Healthy cells never carry worker attribution, so the JSON
        // below can be identical across isolation modes.
        EXPECT_EQ(processResults[i].worker, -1);
    }
    EXPECT_EQ(benchJsonString(threadResults, "thread"),
              benchJsonString(processResults, "process"));
}

TEST(ProcPool, ChaosCrashMarksOnlyTheFaultedCell)
{
    auto cells = smallGrid();
    ChaosGuard chaos("crash@RC4/optimized/4W");
    auto results = driver::runCells(cells, processOptions());

    ASSERT_EQ(results.size(), cells.size());
    EXPECT_EQ(results[0].outcome, CellOutcome::Crashed);
    EXPECT_FALSE(results[0].message.empty());
    EXPECT_GE(results[0].worker, 0);
    // The dead worker's remaining batch cell and the other group both
    // finish with real stats.
    for (size_t i = 1; i < results.size(); i++) {
        EXPECT_TRUE(results[i].ok()) << results[i].message;
        EXPECT_GT(results[i].stats.cycles, 0u);
        EXPECT_EQ(results[i].worker, -1);
    }
}

TEST(ProcPool, ChaosHangTripsTheWatchdog)
{
    auto cells = smallGrid();
    ChaosGuard chaos("hang@Blowfish/optimized/DF");
    auto opts = processOptions();
    opts.cellDeadlineSeconds = 1.0;
    auto results = driver::runCells(cells, opts);

    ASSERT_EQ(results.size(), cells.size());
    EXPECT_EQ(results[3].outcome, CellOutcome::TimedOut);
    EXPECT_NE(results[3].message.find("watchdog"), std::string::npos)
        << results[3].message;
    EXPECT_GE(results[3].worker, 0);
    for (size_t i = 0; i < 3; i++)
        EXPECT_TRUE(results[i].ok()) << results[i].message;
}

TEST(ProcPool, SingleWorkerDeathRequeuesDeterministically)
{
    // One worker, fault in the middle of the first group's batch: the
    // respawned worker must pick up the remainder and the result
    // vector must stay in cell order.
    auto cells = smallGrid();
    ChaosGuard chaos("crash@RC4/optimized/DF");
    auto opts = processOptions();
    opts.threads = 1;
    auto results = driver::runCells(cells, opts);

    ASSERT_EQ(results.size(), cells.size());
    EXPECT_TRUE(results[0].ok()) << results[0].message;
    EXPECT_EQ(results[1].outcome, CellOutcome::Crashed);
    EXPECT_TRUE(results[2].ok()) << results[2].message;
    EXPECT_TRUE(results[3].ok()) << results[3].message;
    for (size_t i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].cipher, cells[i].cipher);
        EXPECT_EQ(results[i].model, cells[i].model.name);
    }
}

TEST(ProcPool, RespawnBudgetExhaustionFailsPendingCellsSoftly)
{
    // Every cell faults and no respawns are allowed: each initial
    // worker retires (at most) its in-flight cell as Crashed, and
    // whatever is still queued when the pool dies must come back as
    // Error — never hang, never throw.
    auto cells = smallGrid();
    ChaosGuard chaos("crash@RC4/optimized/4W;crash@RC4/optimized/DF;"
                     "crash@Blowfish/optimized/4W;"
                     "crash@Blowfish/optimized/DF");
    auto opts = processOptions();
    opts.threads = 1;
    opts.respawnBudget = 0;
    auto results = driver::runCells(cells, opts);

    ASSERT_EQ(results.size(), cells.size());
    size_t crashed = 0, errored = 0;
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok());
        if (r.outcome == CellOutcome::Crashed)
            crashed++;
        else if (r.outcome == CellOutcome::Error) {
            errored++;
            EXPECT_NE(r.message.find("respawn budget"), std::string::npos)
                << r.message;
        }
    }
    EXPECT_EQ(crashed, 1u);
    EXPECT_EQ(errored, cells.size() - 1);
}

TEST(ProcPool, JournalResumeSkipsFinishedCellsByteForByte)
{
    auto cells = smallGrid();
    const std::string path = tempPath("journal_resume.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    auto first = driver::runCells(cells, opts);

    // The rerun must do zero functional work: every cell comes back
    // from the journal. Resume under thread isolation, where the
    // functionalRuns counter is observable (worker processes would
    // increment their own copy).
    SweepOptions resumeOpts;
    resumeOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, resumeOpts);
    EXPECT_EQ(driver::functionalRuns() - before, 0u);
    EXPECT_EQ(benchJsonString(first, "first"),
              benchJsonString(second, "second"));
    std::remove(path.c_str());
}

TEST(ProcPool, JournalResumeWorksAcrossIsolationModes)
{
    // A journal written under thread isolation resumes a process-
    // isolated run (and vice versa): the record format is shared.
    auto cells = smallGrid();
    const std::string path = tempPath("journal_cross.bin");
    std::remove(path.c_str());

    SweepOptions threadOpts;
    threadOpts.journalPath = path;
    auto first = driver::runCells(cells, threadOpts);

    auto procOpts = processOptions();
    procOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, procOpts);
    EXPECT_EQ(driver::functionalRuns() - before, 0u);
    EXPECT_EQ(benchJsonString(first, "xfirst"),
              benchJsonString(second, "xsecond"));
    std::remove(path.c_str());
}

TEST(ProcPool, JournalRejectsCorruptionWithTypedErrors)
{
    auto cells = smallGrid();
    const std::string path = tempPath("journal_corrupt.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    driver::runCells(cells, opts);

    const auto pristine = slurpFile(path);
    const uint64_t fp = driver::gridFingerprint(cells);
    ASSERT_GT(pristine.size(), 24u);

    // Bit-flip inside the first record's payload: checksum mismatch.
    {
        auto bytes = pristine;
        bytes[40] ^= 0x01;
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::BadChecksum);
    }
    // Wrong magic.
    {
        auto bytes = pristine;
        bytes[0] ^= 0xff;
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::BadMagic);
    }
    // Unknown version.
    {
        auto bytes = pristine;
        bytes[4] = 0x7f;
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::BadVersion);
    }
    // Header cut short.
    {
        auto bytes = pristine;
        bytes.resize(10);
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::Truncated);
    }
    // A different grid: same file, different fingerprint.
    {
        writeFile(path, pristine);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp ^ 1, cells.size()),
                  JournalErrorKind::GridMismatch);
    }
    std::remove(path.c_str());
}

TEST(ProcPool, JournalToleratesPartialTrailingRecord)
{
    // A SIGKILL mid-append leaves a severed trailing record; open()
    // must keep every complete record and truncate the tail away.
    auto cells = smallGrid();
    const std::string path = tempPath("journal_tail.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    driver::runCells(cells, opts);

    auto bytes = slurpFile(path);
    const size_t fullRecords = 4;
    bytes.push_back(0x02); // the first bytes of a fifth record
    bytes.push_back(0x00);
    bytes.push_back(0x00);
    writeFile(path, bytes);

    SweepJournal j;
    j.open(path, driver::gridFingerprint(cells), cells.size());
    EXPECT_EQ(j.loadedRecords().size(), fullRecords);
    // And the truncation is durable: the tail is gone from the file.
    EXPECT_EQ(slurpFile(path).size(), bytes.size() - 3);
    std::remove(path.c_str());
}

TEST(ProcPool, CorruptJournalFallsBackToFreshRun)
{
    auto cells = smallGrid();
    const std::string path = tempPath("journal_fallback.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    auto first = driver::runCells(cells, opts);

    auto bytes = slurpFile(path);
    bytes[40] ^= 0x01;
    writeFile(path, bytes);

    // The sweep must not trust the flipped journal: it reruns every
    // cell, rewrites the file, and still produces identical results.
    // Thread isolation here so the in-process functionalRuns counter
    // can witness the rerun (and then the skip).
    SweepOptions threadOpts;
    threadOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, threadOpts);
    EXPECT_GT(driver::functionalRuns() - before, 0u);
    EXPECT_EQ(benchJsonString(first, "ffirst"),
              benchJsonString(second, "fsecond"));

    // The rewritten journal is valid again and resumes cleanly.
    const uint64_t before2 = driver::functionalRuns();
    driver::runCells(cells, threadOpts);
    EXPECT_EQ(driver::functionalRuns() - before2, 0u);
    std::remove(path.c_str());
}

TEST(ProcPool, ResultPayloadRoundTrips)
{
    const SweepResult r = sampleResult();
    const auto payload = driver::serializeResultPayload(r);
    SweepResult out;
    driver::deserializeResultPayload(payload, out);

    EXPECT_EQ(out.outcome, CellOutcome::Trapped);
    EXPECT_EQ(out.message, r.message);
    EXPECT_EQ(out.worker, 3);
    EXPECT_EQ(out.stats.model, "4W");
    EXPECT_EQ(out.stats.instructions, 12345u);
    EXPECT_EQ(out.stats.cycles, 6789u);
    EXPECT_EQ(out.stats.loads, 42u);
    ASSERT_EQ(out.stats.sboxCaches.size(), 1u);
    EXPECT_EQ(out.stats.sboxCaches[0].misses, 7u);
    EXPECT_EQ(out.stats.l1.accesses, 1000u);
    EXPECT_EQ(out.stats.classCounts[2], 99u);
    EXPECT_EQ(out.stats.stallCycles[1], 55u);
    EXPECT_EQ(out.stats.stallByClass[2][1], 33u);

    // Truncation and trailing garbage are typed rejections.
    SweepResult scratch;
    EXPECT_THROW(driver::deserializeResultPayload(
                     {payload.data(), payload.size() - 1}, scratch),
                 JournalError);
    auto longer = payload;
    longer.push_back(0);
    EXPECT_THROW(driver::deserializeResultPayload(longer, scratch),
                 JournalError);
}

TEST(ProcPool, RecordScannerClassifiesEveryCut)
{
    // Two records back to back, as a worker streams them and as the
    // journal stores them.
    SweepResult second = sampleResult();
    second.outcome = CellOutcome::Ok;
    second.message.clear();
    second.worker = -1;
    auto buf = driver::encodeResultRecord(2, sampleResult());
    const size_t firstSize = buf.size();
    const auto tail = driver::encodeResultRecord(0, second);
    buf.insert(buf.end(), tail.begin(), tail.end());

    // Every cut reads as the whole records before it, then one
    // incomplete remainder (possibly empty).
    for (size_t cut = 0; cut <= buf.size(); cut++) {
        const std::span<const uint8_t> view(buf.data(), cut);
        size_t off = 0, complete = 0;
        for (;;) {
            const auto rec = driver::scanRecord(view.subspan(off));
            if (rec.status != RecordStatus::Complete) {
                EXPECT_EQ(rec.status, RecordStatus::Incomplete) << cut;
                break;
            }
            off += rec.size;
            complete++;
        }
        const size_t want =
            cut == buf.size() ? 2 : (cut >= firstSize ? 1 : 0);
        EXPECT_EQ(complete, want) << "cut at " << cut;
        EXPECT_EQ(off, want == 2 ? buf.size() : want * firstSize) << cut;
    }

    // A complete record carries its index and payload.
    const auto first = driver::scanRecord(buf);
    ASSERT_EQ(first.status, RecordStatus::Complete);
    EXPECT_EQ(first.index, 2u);
    EXPECT_EQ(first.size, firstSize);
    SweepResult decoded;
    driver::deserializeResultPayload(first.payload, decoded);
    EXPECT_EQ(decoded.message, sampleResult().message);

    // A flipped byte anywhere but the length field fails the checksum.
    for (size_t pos = 0; pos < firstSize; pos++) {
        if (pos >= 4 && pos < 8)
            continue;
        auto bad = buf;
        bad[pos] ^= 0x01;
        const auto rec = driver::scanRecord(bad);
        EXPECT_EQ(rec.status, RecordStatus::Corrupt) << pos;
        EXPECT_EQ(rec.error, JournalErrorKind::BadChecksum) << pos;
    }

    // A length past max_payload is corrupt as soon as it is read, even
    // before the bytes it promises could have arrived.
    auto huge = buf;
    const uint32_t len = SweepJournal::max_payload + 1;
    for (int i = 0; i < 4; i++)
        huge[4 + i] = static_cast<uint8_t>(len >> (8 * i));
    const auto rec = driver::scanRecord(huge);
    EXPECT_EQ(rec.status, RecordStatus::Corrupt);
    EXPECT_EQ(rec.error, JournalErrorKind::Inconsistent);
}

/** Append @p v to @p b as @p n little-endian bytes. */
void
appendLE(std::vector<uint8_t> &b, uint64_t v, int n)
{
    for (int i = 0; i < n; i++)
        b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

TEST(ProcPool, HandAssembledJournalLoadsAndResumes)
{
    // The on-disk layout, spelled out independently of the codec: a
    // journal written this way must load, and a sweep must resume
    // from it without rerunning the journaled cell.
    auto cells = smallGrid();
    const uint64_t fp = driver::gridFingerprint(cells);
    SweepResult handMade = sampleResult();
    handMade.message = "hand-made record";
    const auto payload = driver::serializeResultPayload(handMade);

    std::vector<uint8_t> journal = {
        'C',  'S',  'W',  'J',  // magic
        0x01, 0x00, 0x00, 0x00, // version 1
    };
    appendLE(journal, fp, 8);           // grid fingerprint
    appendLE(journal, cells.size(), 8); // cell count
    ASSERT_EQ(journal.size(), 24u);
    const size_t recordStart = journal.size();
    appendLE(journal, 1, 4);              // cell index
    appendLE(journal, payload.size(), 4); // payload length
    journal.insert(journal.end(), payload.begin(), payload.end());
    appendLE(journal,
             util::fnv1a64(journal.data() + recordStart,
                           journal.size() - recordStart),
             8); // FNV-1a over index, length and payload

    const std::string path = tempPath("journal_by_hand.bin");
    writeFile(path, journal);
    {
        SweepJournal j;
        j.open(path, fp, cells.size());
        ASSERT_EQ(j.loadedRecords().size(), 1u);
        EXPECT_EQ(j.loadedRecords()[0].first, 1u);
        EXPECT_EQ(j.loadedRecords()[0].second, payload);
    }

    SweepOptions opts;
    opts.journalPath = path;
    const auto results = driver::runCells(cells, opts);
    EXPECT_EQ(results[1].outcome, CellOutcome::Trapped);
    EXPECT_EQ(results[1].message, "hand-made record");
    EXPECT_EQ(results[1].stats.cycles, 6789u);
    for (size_t i : {size_t{0}, size_t{2}, size_t{3}})
        EXPECT_TRUE(results[i].ok()) << results[i].message;

    // The resumed sweep appended after the hand-made record.
    const auto after = slurpFile(path);
    ASSERT_GT(after.size(), journal.size());
    EXPECT_TRUE(std::equal(journal.begin(), journal.end(), after.begin()));
    SweepJournal reread;
    reread.open(path, fp, cells.size());
    EXPECT_EQ(reread.loadedRecords().size(), cells.size());
    std::remove(path.c_str());
}

/** The error a test reader handler raises. */
struct ShortRead
{
    std::string what;
};

void
throwShortRead(const char *what, size_t, size_t)
{
    throw ShortRead{what};
}

TEST(ProcPool, ByteReaderRaisesTheCallersErrorKind)
{
    // "abc" as a putString() field, padded to cover every getter.
    const std::vector<uint8_t> bytes = {3, 0, 0, 0, 'a', 'b', 'c', 0};
    using Get = void (*)(util::ByteReader &);
    const std::vector<std::pair<Get, size_t>> getters = {
        {[](util::ByteReader &in) { in.u8("u8"); }, 1},
        {[](util::ByteReader &in) { in.u16("u16"); }, 2},
        {[](util::ByteReader &in) { in.u32("u32"); }, 4},
        {[](util::ByteReader &in) { in.u64("u64"); }, 8},
        {[](util::ByteReader &in) { in.string("string"); }, 7},
        {[](util::ByteReader &in) { in.bytes(5, "bytes"); }, 5},
    };
    for (const auto &[get, need] : getters) {
        for (size_t len = 0; len < need; len++) {
            util::ByteReader in({bytes.data(), len}, throwShortRead);
            EXPECT_THROW(get(in), ShortRead) << need << "/" << len;
        }
        util::ByteReader in({bytes.data(), need}, throwShortRead);
        EXPECT_NO_THROW(get(in)) << need;
        EXPECT_TRUE(in.done()) << need;
    }

    // Each format turns a short read into its own typed error: every
    // proper prefix of a result payload and of a journal header...
    const auto payload = driver::serializeResultPayload(sampleResult());
    SweepResult scratch;
    for (size_t len = 0; len < payload.size(); len++) {
        try {
            driver::deserializeResultPayload({payload.data(), len},
                                             scratch);
            ADD_FAILURE() << "payload prefix " << len << " accepted";
        } catch (const JournalError &e) {
            EXPECT_EQ(e.kind(), JournalErrorKind::Truncated) << len;
        }
    }
    auto cells = smallGrid();
    const uint64_t fp = driver::gridFingerprint(cells);
    const std::string path = tempPath("journal_prefix.bin");
    SweepJournal fresh;
    fresh.openFresh(path, fp, cells.size());
    const auto header = slurpFile(path);
    ASSERT_EQ(header.size(), 24u);
    for (size_t len = 1; len < header.size(); len++) {
        writeFile(path, {header.begin(), header.begin() + len});
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::Truncated)
            << len;
    }
    std::remove(path.c_str());

    // ...and of a packed-trace stream.
    const auto trace =
        driver::recordKernelTrace(crypto::CipherId::RC4,
                                  KernelVariant::Optimized, 64)
            .packedStream()
            .serialize();
    for (size_t len = 0; len < trace.size(); len++) {
        try {
            isa::PackedTrace::deserialize({trace.data(), len});
            ADD_FAILURE() << "trace prefix " << len << " accepted";
        } catch (const isa::TraceFormatError &e) {
            EXPECT_EQ(e.kind(), isa::TraceErrorKind::Truncated) << len;
        }
    }
}

TEST(ProcPool, FailedJournalWriteLetsTheSweepFinish)
{
    // A journal that cannot grow (a full disk, here a file-size limit
    // just past the header) costs the journal, not the sweep: every
    // cell still finishes, in either isolation mode, and a later run
    // resumes from what was written.
    const auto cells = smallGrid();
    const std::string want = benchJsonString(
        driver::runCells(cells, SweepOptions{}), "unlimited");
    for (auto isolation :
         {driver::SweepIsolation::Thread, driver::SweepIsolation::Process}) {
        SweepOptions opts;
        opts.isolation = isolation;
        opts.journalPath = tempPath("journal_full.bin");
        std::remove(opts.journalPath.c_str());

        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::signal(SIGXFSZ, SIG_IGN); // a failed write, not a signal
            const rlimit limit{32, 32};
            ::setrlimit(RLIMIT_FSIZE, &limit);
            try {
                for (const auto &r : driver::runCells(cells, opts))
                    if (!r.ok())
                        ::_exit(1);
            } catch (...) {
                ::_exit(2); // never back into the test runner
            }
            ::_exit(0);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status))
            << "sweep died on signal " << WTERMSIG(status);
        EXPECT_EQ(WEXITSTATUS(status), 0);

        EXPECT_EQ(benchJsonString(driver::runCells(cells, opts), "resumed"),
                  want);
        std::remove(opts.journalPath.c_str());
    }
}

TEST(ProcPool, ChaosSpecParsing)
{
    auto points = driver::parseChaosSpec(
        "crash@RC4/optimized/4W;hang@Blowfish/optimized/DF;"
        "bogus@X/Y/Z;missing-slashes;exit@IDEA/grouped/8W+");
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].action, driver::ChaosAction::Crash);
    EXPECT_EQ(points[0].cipher, "RC4");
    EXPECT_EQ(points[0].variant, "optimized");
    EXPECT_EQ(points[0].model, "4W");
    EXPECT_EQ(points[1].action, driver::ChaosAction::Hang);
    EXPECT_EQ(points[2].action, driver::ChaosAction::Exit);
    EXPECT_EQ(points[2].model, "8W+");

    SweepCell cell{crypto::CipherId::RC4, KernelVariant::Optimized,
                   MachineConfig::fourWide(), 512};
    EXPECT_EQ(driver::chaosActionFor(points, cell),
              driver::ChaosAction::Crash);
    cell.model = MachineConfig::dataflow();
    EXPECT_EQ(driver::chaosActionFor(points, cell),
              driver::ChaosAction::None);
}

TEST(Driver, RunCellsReadsNoEnvironment)
{
    // Sweep settings arrive only as SweepOptions: an outer shell that
    // still exports the retired variables must not switch a default
    // sweep to process isolation or make it journal.
    const std::string journal = tempPath("env_leak.journal");
    std::remove(journal.c_str());
    ::setenv("CRYPTARCH_SWEEP_ISOLATE", "process", 1);
    ::setenv("CRYPTARCH_SWEEP_JOURNAL", journal.c_str(), 1);
    const auto results = driver::runCells(smallGrid());
    ::unsetenv("CRYPTARCH_SWEEP_ISOLATE");
    ::unsetenv("CRYPTARCH_SWEEP_JOURNAL");

    ASSERT_EQ(results.size(), smallGrid().size());
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok()) << r.message;
        EXPECT_EQ(r.worker, -1);
    }
    EXPECT_FALSE(std::ifstream(journal).good())
        << "runCells wrote a journal named by the environment";
    std::remove(journal.c_str());
}

} // namespace
