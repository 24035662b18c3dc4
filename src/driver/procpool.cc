#include "driver/procpool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/cell_exec.hh"
#include "util/bytes.hh"
#include "util/checksum.hh"

namespace cryptarch::driver
{

using util::putString;
using util::putU16;
using util::putU32;
using util::putU64;
using util::putU8;

const char *
journalErrorKindName(JournalErrorKind kind)
{
    switch (kind) {
      case JournalErrorKind::BadMagic: return "bad-magic";
      case JournalErrorKind::BadVersion: return "bad-version";
      case JournalErrorKind::GridMismatch: return "grid-mismatch";
      case JournalErrorKind::Truncated: return "truncated";
      case JournalErrorKind::BadChecksum: return "bad-checksum";
      case JournalErrorKind::Inconsistent: return "inconsistent";
      case JournalErrorKind::Io: return "io";
    }
    return "?";
}

namespace
{

/** Result payload codec version (bumped with SimStats changes). */
constexpr uint16_t payload_version = 1;

/** Per-record framing: index, payload length, trailing checksum. */
constexpr size_t record_overhead_bytes = 4 + 4 + 8;

/** Short reads in payloads, records, journals and command frames. */
void
truncated(const char *what, size_t, size_t)
{
    throw JournalError(JournalErrorKind::Truncated,
                       std::string("cut short reading ") + what);
}

// ---------------------------------------------------------------------
// Full-buffer pipe/file I/O (EINTR-safe).

bool
writeFull(int fd, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    while (n) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** False on EOF or error before @p n bytes arrive. */
bool
readFull(int fd, void *data, size_t n)
{
    auto *p = static_cast<uint8_t *>(data);
    while (n) {
        ssize_t r = ::read(fd, p, n);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0)
            return false;
        p += r;
        n -= static_cast<size_t>(r);
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Result payload codec.

std::vector<uint8_t>
serializeResultPayload(const SweepResult &r)
{
    std::vector<uint8_t> b;
    b.reserve(512 + r.message.size());
    putU16(b, payload_version);
    putU8(b, static_cast<uint8_t>(r.outcome));
    putU32(b, static_cast<uint32_t>(r.worker));
    putString(b, r.message);

    const sim::SimStats &st = r.stats;
    putString(b, st.model);
    putU64(b, st.instructions);
    putU64(b, st.cycles);
    putU64(b, st.condBranches);
    putU64(b, st.mispredicts);
    putU64(b, st.loads);
    putU64(b, st.stores);
    putU64(b, st.sboxAccesses);
    putU64(b, st.sboxCacheHits);
    putU64(b, st.sboxCacheAccesses);
    putU64(b, st.sboxCacheMisses);
    putU32(b, static_cast<uint32_t>(st.sboxCaches.size()));
    for (const auto &c : st.sboxCaches) {
        putU64(b, c.accesses);
        putU64(b, c.misses);
    }
    for (const sim::CacheStats *c : {&st.l1, &st.l2, &st.tlb}) {
        putU64(b, c->accesses);
        putU64(b, c->misses);
    }
    putU32(b, static_cast<uint32_t>(st.classCounts.size()));
    for (uint64_t v : st.classCounts)
        putU64(b, v);
    putU32(b, static_cast<uint32_t>(sim::num_stall_causes));
    for (uint64_t v : st.stallCycles)
        putU64(b, v);
    for (const auto &perClass : st.stallByClass)
        for (uint64_t v : perClass)
            putU64(b, v);
    return b;
}

void
deserializeResultPayload(std::span<const uint8_t> payload, SweepResult &r)
{
    util::ByteReader in(payload, truncated);
    if (in.u16("version") != payload_version)
        throw JournalError(JournalErrorKind::BadVersion,
                           "unknown result payload version");
    const uint8_t outcome = in.u8("outcome");
    if (outcome >= num_cell_outcomes)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "impossible cell outcome");
    const auto worker = static_cast<int32_t>(in.u32("worker"));
    std::string message = in.string("message");

    sim::SimStats st;
    st.model = in.string("stats model");
    st.instructions = in.u64("instructions");
    st.cycles = in.u64("cycles");
    st.condBranches = in.u64("cond branches");
    st.mispredicts = in.u64("mispredicts");
    st.loads = in.u64("loads");
    st.stores = in.u64("stores");
    st.sboxAccesses = in.u64("sbox accesses");
    st.sboxCacheHits = in.u64("sbox cache hits");
    st.sboxCacheAccesses = in.u64("sbox cache accesses");
    st.sboxCacheMisses = in.u64("sbox cache misses");
    const uint32_t nSbox = in.u32("sbox cache count");
    if (nSbox > 4096)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "impossible SBox cache count");
    st.sboxCaches.resize(nSbox);
    for (auto &c : st.sboxCaches) {
        c.accesses = in.u64("sbox cache accesses[i]");
        c.misses = in.u64("sbox cache misses[i]");
    }
    for (sim::CacheStats *c : {&st.l1, &st.l2, &st.tlb}) {
        c->accesses = in.u64("cache accesses");
        c->misses = in.u64("cache misses");
    }
    if (in.u32("op-class count") != isa::num_op_classes)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "op-class count mismatch (foreign build?)");
    for (auto &v : st.classCounts)
        v = in.u64("class count");
    if (in.u32("stall-cause count") != sim::num_stall_causes)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "stall-cause count mismatch (foreign build?)");
    for (auto &v : st.stallCycles)
        v = in.u64("stall cycles");
    for (auto &perClass : st.stallByClass)
        for (auto &v : perClass)
            v = in.u64("per-class stall cycles");
    if (!in.done())
        throw JournalError(JournalErrorKind::Inconsistent,
                           "trailing bytes after payload");

    r.outcome = static_cast<CellOutcome>(outcome);
    r.worker = worker;
    r.message = std::move(message);
    r.stats = std::move(st);
}

uint64_t
gridFingerprint(const std::vector<SweepCell> &cells)
{
    std::vector<uint8_t> b;
    b.reserve(32 * cells.size() + 8);
    putU64(b, cells.size());
    for (const auto &cell : cells) {
        putU32(b, static_cast<uint32_t>(cell.cipher));
        putU32(b, static_cast<uint32_t>(cell.variant));
        putU64(b, cell.bytes);
        putString(b, cell.model.name);
    }
    return util::fnv1a64(b.data(), b.size());
}

// ---------------------------------------------------------------------
// Records: the worker pipe frame and the journal entry.

std::vector<uint8_t>
encodeResultRecord(uint32_t index, const SweepResult &r)
{
    const auto payload = serializeResultPayload(r);
    std::vector<uint8_t> rec;
    rec.reserve(record_overhead_bytes + payload.size());
    putU32(rec, index);
    putU32(rec, static_cast<uint32_t>(payload.size()));
    rec.insert(rec.end(), payload.begin(), payload.end());
    putU64(rec, util::fnv1a64(rec.data(), rec.size()));
    return rec;
}

RecordScan
scanRecord(std::span<const uint8_t> bytes)
{
    RecordScan rec;
    auto corrupt = [&](JournalErrorKind kind, const char *detail) {
        rec.status = RecordStatus::Corrupt;
        rec.error = kind;
        rec.detail = detail;
        return rec;
    };
    if (bytes.size() < record_overhead_bytes)
        return rec;
    util::ByteReader in(bytes, truncated);
    rec.index = in.u32("record index");
    const uint32_t len = in.u32("record length");
    if (len > SweepJournal::max_payload)
        return corrupt(JournalErrorKind::Inconsistent,
                       "impossible record length");
    if (in.remaining() < size_t{len} + 8)
        return rec;
    rec.payload = in.bytes(len, "record payload");
    if (in.u64("record checksum") != util::fnv1a64(bytes.data(), 8 + len))
        return corrupt(JournalErrorKind::BadChecksum,
                       "record checksum mismatch");
    rec.status = RecordStatus::Complete;
    rec.size = record_overhead_bytes + len;
    return rec;
}

// ---------------------------------------------------------------------
// Checkpoint journal.

namespace
{

/** Journal header: magic, version, grid fingerprint, cell count. */
constexpr size_t journal_header_bytes = 4 + 4 + 8 + 8;

std::vector<uint8_t>
journalHeader(uint64_t fingerprint, uint64_t cellCount)
{
    std::vector<uint8_t> b;
    b.reserve(journal_header_bytes);
    putU32(b, SweepJournal::magic);
    putU32(b, SweepJournal::version);
    putU64(b, fingerprint);
    putU64(b, cellCount);
    return b;
}

} // namespace

SweepJournal::~SweepJournal()
{
    close();
}

void
SweepJournal::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

void
SweepJournal::open(const std::string &path, uint64_t fingerprint,
                   uint64_t cellCount)
{
    close();
    loaded_.clear();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0)
        throw JournalError(JournalErrorKind::Io, "cannot open " + path + ": "
                                                     + std::strerror(errno));
    auto fail = [&](JournalErrorKind kind,
                    const std::string &detail) -> void {
        close();
        loaded_.clear();
        throw JournalError(kind, detail);
    };

    // Journals are one small record per cell: read whole, then parse.
    std::vector<uint8_t> data;
    uint8_t chunk[65536];
    for (;;) {
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail(JournalErrorKind::Io,
                 std::string("read failed: ") + std::strerror(errno));
        }
        if (n == 0)
            break;
        data.insert(data.end(), chunk, chunk + n);
    }

    if (data.empty()) {
        // Missing or empty file: a fresh journal.
        auto header = journalHeader(fingerprint, cellCount);
        if (!writeFull(fd_, header.data(), header.size()))
            fail(JournalErrorKind::Io, "cannot write journal header");
        return;
    }

    if (data.size() < journal_header_bytes)
        fail(JournalErrorKind::Truncated, "header cut short");
    util::ByteReader header(data, truncated); // long enough: checked above
    if (header.u32("magic") != magic)
        fail(JournalErrorKind::BadMagic, "not a sweep journal");
    if (header.u32("version") != version)
        fail(JournalErrorKind::BadVersion, "unknown journal version");
    if (header.u64("fingerprint") != fingerprint
        || header.u64("cell count") != cellCount)
        fail(JournalErrorKind::GridMismatch,
             "journal belongs to a different sweep grid");

    std::vector<char> seen(cellCount, 0);
    size_t off = journal_header_bytes;
    for (;;) {
        const RecordScan rec = scanRecord(std::span(data).subspan(off));
        if (rec.status == RecordStatus::Incomplete)
            break; // partial trailing record: the SIGKILL-mid-append case
        if (rec.status == RecordStatus::Corrupt)
            fail(rec.error, rec.detail);
        if (rec.index >= cellCount)
            fail(JournalErrorKind::Inconsistent, "record index out of range");
        if (seen[rec.index])
            fail(JournalErrorKind::Inconsistent, "duplicate cell record");
        seen[rec.index] = 1;
        loaded_.emplace_back(rec.index,
                             std::vector<uint8_t>(rec.payload.begin(),
                                                  rec.payload.end()));
        off += rec.size;
    }

    // Drop the partial tail (if any) so appends start on a record
    // boundary, then position at the end.
    if (off < data.size() && ::ftruncate(fd_, static_cast<off_t>(off)) != 0)
        fail(JournalErrorKind::Io, "cannot truncate partial record");
    if (::lseek(fd_, 0, SEEK_END) < 0)
        fail(JournalErrorKind::Io, "seek failed");
}

void
SweepJournal::openFresh(const std::string &path, uint64_t fingerprint,
                        uint64_t cellCount)
{
    close();
    loaded_.clear();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        throw JournalError(JournalErrorKind::Io, "cannot open " + path + ": "
                                                     + std::strerror(errno));
    auto header = journalHeader(fingerprint, cellCount);
    if (!writeFull(fd_, header.data(), header.size())) {
        close();
        throw JournalError(JournalErrorKind::Io,
                           "cannot write journal header");
    }
}

void
SweepJournal::append(std::span<const uint8_t> record)
{
    if (fd_ < 0)
        return;
    // One write per record: a kill can only sever the trailing record,
    // which open() tolerates and truncates away.
    if (!writeFull(fd_, record.data(), record.size())) {
        std::fprintf(stderr,
                     "sweep: journal append failed (%s); later cells "
                     "are not journaled\n",
                     std::strerror(errno));
        close();
    }
}

// ---------------------------------------------------------------------
// Chaos fault points.

std::vector<ChaosPoint>
parseChaosSpec(std::string_view spec)
{
    std::vector<ChaosPoint> points;
    for (size_t pos = 0; pos < spec.size();) {
        size_t end = spec.find(';', pos);
        if (end == std::string_view::npos)
            end = spec.size();
        const std::string_view tok = spec.substr(pos, end - pos);
        pos = end + 1;
        const size_t at = tok.find('@');
        if (at == std::string_view::npos)
            continue;
        const std::string_view action = tok.substr(0, at);
        const std::string_view target = tok.substr(at + 1);
        const size_t s1 = target.find('/');
        if (s1 == std::string_view::npos)
            continue;
        const size_t s2 = target.find('/', s1 + 1);
        if (s2 == std::string_view::npos)
            continue;
        ChaosPoint p;
        if (action == "crash")
            p.action = ChaosAction::Crash;
        else if (action == "abort")
            p.action = ChaosAction::Abort;
        else if (action == "exit")
            p.action = ChaosAction::Exit;
        else if (action == "hang")
            p.action = ChaosAction::Hang;
        else
            continue; // malformed points are dropped, not fatal
        p.cipher = std::string(target.substr(0, s1));
        p.variant = std::string(target.substr(s1 + 1, s2 - s1 - 1));
        p.model = std::string(target.substr(s2 + 1));
        points.push_back(std::move(p));
    }
    return points;
}

ChaosAction
chaosActionFor(const std::vector<ChaosPoint> &points, const SweepCell &cell)
{
    if (points.empty())
        return ChaosAction::None;
    const std::string &cipher = crypto::cipherInfo(cell.cipher).name;
    const std::string variant = kernels::variantName(cell.variant);
    for (const auto &p : points)
        if (p.cipher == cipher && p.variant == variant
            && p.model == cell.model.name)
            return p.action;
    return ChaosAction::None;
}

namespace
{

/** Fire a chaos fault point. Returns only for None. */
void
applyChaos(ChaosAction action)
{
    switch (action) {
      case ChaosAction::None:
        return;
      case ChaosAction::Crash:
        ::raise(SIGSEGV);
        ::_exit(99); // sanitizers may turn the signal into an exit
      case ChaosAction::Abort:
        std::abort();
      case ChaosAction::Exit:
        ::_exit(3);
      case ChaosAction::Hang:
        for (;;)
            ::pause(); // watchdog food; SIGKILL is the only way out
    }
}

// ---------------------------------------------------------------------
// Pipe protocol.

constexpr uint32_t cmd_magic = 0x42575343; // "CSWB" little-endian

/**
 * Worker process main loop: claim batches from the command pipe, run
 * each cell (chaos hook first), stream back one result record per
 * cell. Exits on command-pipe EOF (orderly shutdown), a malformed
 * command, or a dead parent.
 */
[[noreturn]] void
workerMain(int cmdFd, int resFd, const std::vector<SweepCell> &cells)
{
    const char *chaosEnv = std::getenv("CRYPTARCH_SWEEP_CHAOS");
    const auto chaos = parseChaosSpec(chaosEnv ? chaosEnv : "");

    for (;;) {
        uint8_t hdr[8];
        if (!readFull(cmdFd, hdr, sizeof(hdr)))
            break; // EOF: orderly shutdown
        util::ByteReader head(hdr, truncated);
        if (head.u32("command magic") != cmd_magic)
            ::_exit(4);
        const uint32_t count = head.u32("command count");
        if (count == 0 || count > cells.size())
            ::_exit(4);
        std::vector<uint8_t> raw(size_t{count} * 4);
        if (!readFull(cmdFd, raw.data(), raw.size()))
            break;
        util::ByteReader indices(raw, truncated);

        // Batches are group-aligned: one TraceGroup records the
        // kernel once, every cell of the batch replays it.
        detail::TraceGroup group;
        for (uint32_t k = 0; k < count; k++) {
            const uint32_t idx = indices.u32("cell index");
            if (idx >= cells.size())
                ::_exit(4);
            const SweepCell &cell = cells[idx];
            applyChaos(chaosActionFor(chaos, cell));
            SweepResult r = detail::makeResultShell(cell);
            detail::executeCell(cell, group, r);

            const auto record = encodeResultRecord(idx, r);
            if (!writeFull(resFd, record.data(), record.size()))
                ::_exit(0); // parent went away
        }
    }
    ::_exit(0);
}

/** Parent-side state of one worker slot. */
struct WorkerProc
{
    pid_t pid = -1;
    int cmdFd = -1;
    int resFd = -1;
    bool alive = false;
    std::vector<uint32_t> batch;
    size_t got = 0; ///< results received for the current batch
    std::chrono::steady_clock::time_point deadline{};
    std::vector<uint8_t> buf; ///< unparsed result-pipe bytes

    bool busy() const { return alive && got < batch.size(); }
};

/** Fork a worker into slot @p w. The child closes the other slots'
 *  pipe ends (no exec, so nothing is CLOEXEC'd for us). */
bool
spawnWorker(WorkerProc &w, std::vector<WorkerProc> &all,
            const std::vector<SweepCell> &cells)
{
    int toChild[2];
    int fromChild[2];
    if (::pipe(toChild) != 0)
        return false;
    if (::pipe(fromChild) != 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        ::close(fromChild[1]);
        return false;
    }
    if (pid == 0) {
        ::close(toChild[1]);
        ::close(fromChild[0]);
        for (const auto &other : all)
            if (other.alive) {
                ::close(other.cmdFd);
                ::close(other.resFd);
            }
        workerMain(toChild[0], fromChild[1], cells);
    }
    ::close(toChild[0]);
    ::close(fromChild[1]);
    w.pid = pid;
    w.cmdFd = toChild[1];
    w.resFd = fromChild[0];
    w.alive = true;
    w.batch.clear();
    w.got = 0;
    w.buf.clear();
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// The supervisor.

void
runCellsProcess(const std::vector<SweepCell> &cells,
                const std::vector<uint32_t> &todo,
                const SweepOptions &options,
                std::vector<SweepResult> &results, SweepJournal *journal)
{
    using Clock = std::chrono::steady_clock;

    // Group-aligned batches in first-appearance order, so results are
    // deterministic and each batch shares one recorded trace.
    auto batches = detail::groupCells(cells, todo);
    std::deque<std::vector<uint32_t>> queue(
        std::make_move_iterator(batches.begin()),
        std::make_move_iterator(batches.end()));

    const double deadlineSecs = options.cellDeadlineSeconds > 0
        ? options.cellDeadlineSeconds
        : default_cell_deadline_seconds;
    const auto deadlineDur = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(deadlineSecs));

    unsigned want = options.threads ? options.threads
                                    : std::thread::hardware_concurrency();
    want = std::max(1u, std::min<unsigned>(
                            want, static_cast<unsigned>(queue.size())));

    // A worker dying between frames must surface as EPIPE on our next
    // write, not kill the whole bench with SIGPIPE.
    struct sigaction ignorePipe{};
    struct sigaction oldPipe{};
    ignorePipe.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignorePipe, &oldPipe);

    std::vector<WorkerProc> workers(want);
    unsigned respawnsLeft = options.respawnBudget;

    auto finalizeCell = [&](uint32_t idx, CellOutcome outcome,
                            std::string message, int workerIndex,
                            bool journalIt) {
        SweepResult r = detail::makeResultShell(cells[idx]);
        r.outcome = outcome;
        r.message = std::move(message);
        r.worker = workerIndex;
        if (journalIt && journal)
            journal->append(encodeResultRecord(idx, r));
        results[idx] = std::move(r);
    };

    auto requeueRemainder = [&](WorkerProc &w) {
        // Everything after the in-flight cell goes back to survivors.
        if (w.got + 1 < w.batch.size())
            queue.emplace_front(w.batch.begin()
                                    + static_cast<ptrdiff_t>(w.got) + 1,
                                w.batch.end());
    };

    auto reapWorker = [&](WorkerProc &w) -> int {
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
        ::close(w.cmdFd);
        ::close(w.resFd);
        w.cmdFd = w.resFd = -1;
        w.alive = false;
        return status;
    };

    auto describeDeath = [](int status) -> std::string {
        char buf[160];
        if (WIFSIGNALED(status)) {
            const int sig = WTERMSIG(status);
            const char *name = ::strsignal(sig);
            std::snprintf(
                buf, sizeof(buf),
                "worker killed by signal %d (%s) while running cell", sig,
                name ? name : "?");
        } else if (WIFEXITED(status)) {
            std::snprintf(buf, sizeof(buf),
                          "worker exited with status %d while running cell",
                          WEXITSTATUS(status));
        } else {
            std::snprintf(buf, sizeof(buf),
                          "worker vanished (wait status 0x%x) "
                          "while running cell",
                          static_cast<unsigned>(status));
        }
        return buf;
    };

    // Retire a failed worker: reap it (SIGKILL first when it may still
    // be running), charge its in-flight cell with @p outcome and
    // @p message (empty: describe how the worker died), and requeue
    // the rest of its batch.
    auto retireWorker = [&](WorkerProc &w, int wi, CellOutcome outcome,
                            std::string message, bool killFirst) {
        if (killFirst)
            ::kill(w.pid, SIGKILL);
        const int status = reapWorker(w);
        if (w.got < w.batch.size()) {
            if (message.empty())
                message = describeDeath(status);
            finalizeCell(w.batch[w.got], outcome, std::move(message), wi,
                         /*journalIt=*/true);
            requeueRemainder(w);
        }
        w.batch.clear();
        w.got = 0;
        w.buf.clear();
    };

    // Consume the complete records at the front of w.buf into results,
    // appending each to the journal as received. Returns a
    // protocol-error description, empty while the stream is
    // well-formed.
    auto parseRecords = [&](WorkerProc &w) -> std::string {
        size_t off = 0;
        std::string error;
        for (;;) {
            const RecordScan rec = scanRecord(std::span(w.buf).subspan(off));
            if (rec.status == RecordStatus::Incomplete)
                break; // wait for more bytes
            if (rec.status == RecordStatus::Corrupt) {
                error = rec.detail;
                break;
            }
            if (w.got >= w.batch.size() || rec.index != w.batch[w.got]) {
                error = "unexpected cell index in record";
                break;
            }
            try {
                deserializeResultPayload(rec.payload, results[rec.index]);
            } catch (const JournalError &e) {
                // Undo any partial fill before failing the worker.
                results[rec.index] = detail::makeResultShell(cells[rec.index]);
                error = e.what();
                break;
            }
            if (journal)
                journal->append(std::span(w.buf).subspan(off, rec.size));
            w.got++;
            w.deadline = Clock::now() + deadlineDur;
            off += rec.size;
        }
        w.buf.erase(w.buf.begin(),
                    w.buf.begin() + static_cast<ptrdiff_t>(off));
        return error;
    };

    auto dispatch = [&](WorkerProc &w) {
        w.batch = std::move(queue.front());
        queue.pop_front();
        w.got = 0;
        w.buf.clear();
        std::vector<uint8_t> frame;
        frame.reserve(8 + 4 * w.batch.size());
        putU32(frame, cmd_magic);
        putU32(frame, static_cast<uint32_t>(w.batch.size()));
        for (uint32_t idx : w.batch)
            putU32(frame, idx);
        if (!writeFull(w.cmdFd, frame.data(), frame.size())) {
            // The worker died while idle: nothing was in flight, so
            // the whole batch goes back and the slot is respawnable.
            queue.push_front(std::move(w.batch));
            w.batch.clear();
            reapWorker(w);
            w.got = 0;
            return;
        }
        w.deadline = Clock::now() + deadlineDur;
    };

    for (auto &w : workers)
        if (!spawnWorker(w, workers, cells))
            break; // fork pressure: run with fewer workers

    for (;;) {
        // Refill dead slots while queued work remains (bounded budget).
        for (auto &w : workers)
            if (!w.alive && !queue.empty() && respawnsLeft > 0) {
                respawnsLeft--;
                spawnWorker(w, workers, cells);
            }

        // Hand batches to idle live workers.
        for (auto &w : workers)
            if (w.alive && !w.busy() && !queue.empty())
                dispatch(w);

        std::vector<int> busyIdx;
        for (size_t wi = 0; wi < workers.size(); wi++)
            if (workers[wi].busy())
                busyIdx.push_back(static_cast<int>(wi));

        if (busyIdx.empty()) {
            if (queue.empty())
                break; // every cell accounted for
            const bool anyAlive =
                std::any_of(workers.begin(), workers.end(),
                            [](const WorkerProc &w) { return w.alive; });
            if (!anyAlive && respawnsLeft == 0) {
                // Budget exhausted with work pending: fail the cells
                // *without* journaling them, so a rerun retries.
                for (const auto &batch : queue)
                    for (uint32_t idx : batch)
                        finalizeCell(idx, CellOutcome::Error,
                                     "worker respawn budget exhausted; "
                                     "cell not run",
                                     -1, /*journalIt=*/false);
                queue.clear();
                break;
            }
            continue; // respawn/dispatch next round
        }

        // Poll until data or the nearest watchdog deadline.
        auto now = Clock::now();
        long waitMs = 60'000;
        for (int wi : busyIdx) {
            const auto remain =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    workers[static_cast<size_t>(wi)].deadline - now)
                    .count();
            waitMs = std::min(waitMs, std::max<long>(0, remain + 1));
        }
        std::vector<pollfd> fds;
        fds.reserve(busyIdx.size());
        for (int wi : busyIdx)
            fds.push_back({workers[static_cast<size_t>(wi)].resFd, POLLIN,
                           0});
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              static_cast<int>(waitMs));
        if (rc < 0 && errno != EINTR)
            continue; // defensive: fall through to the watchdog pass

        for (size_t k = 0; rc > 0 && k < fds.size(); k++) {
            WorkerProc &w = workers[static_cast<size_t>(busyIdx[k])];
            if (!w.alive
                || !(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            uint8_t chunk[65536];
            const ssize_t n = ::read(w.resFd, chunk, sizeof(chunk));
            if (n > 0) {
                w.buf.insert(w.buf.end(), chunk, chunk + n);
                const std::string err = parseRecords(w);
                if (!err.empty())
                    retireWorker(w, busyIdx[k], CellOutcome::Error,
                                 "corrupt result frame from worker: "
                                     + err,
                                 /*killFirst=*/true);
            } else if (n == 0
                       || (errno != EINTR && errno != EAGAIN)) {
                retireWorker(w, busyIdx[k], CellOutcome::Crashed, "",
                             /*killFirst=*/false);
            }
        }

        // Watchdog pass: anyone past deadline is killed.
        now = Clock::now();
        for (int wi : busyIdx) {
            WorkerProc &w = workers[static_cast<size_t>(wi)];
            if (w.busy() && now >= w.deadline) {
                char msg[128];
                std::snprintf(msg, sizeof(msg),
                              "cell exceeded %.1f s watchdog deadline; "
                              "worker killed",
                              deadlineSecs);
                retireWorker(w, wi, CellOutcome::TimedOut, msg,
                             /*killFirst=*/true);
            }
        }
    }

    // Orderly shutdown: EOF on the command pipes, then reap everyone.
    for (auto &w : workers)
        if (w.alive)
            ::close(w.cmdFd);
    for (auto &w : workers) {
        if (!w.alive)
            continue;
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
        ::close(w.resFd);
        w.alive = false;
    }
    ::sigaction(SIGPIPE, &oldPipe, nullptr);
}

} // namespace cryptarch::driver
