#include "driver/sweep.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "driver/cell_exec.hh"
#include "driver/procpool.hh"
#include "isa/trap.hh"
#include "sim/validate.hh"
#include "util/env.hh"
#include "verify/oracle.hh"

namespace cryptarch::driver
{

const char *
cellOutcomeName(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Ok: return "ok";
      case CellOutcome::Trapped: return "trapped";
      case CellOutcome::VerifyFailed: return "verify_failed";
      case CellOutcome::Error: return "error";
      case CellOutcome::Crashed: return "crashed";
      case CellOutcome::TimedOut: return "timed_out";
      case CellOutcome::Rejected: return "rejected";
      case CellOutcome::Stalled: return "stalled";
    }
    return "?";
}

SweepIsolation
parseSweepIsolation(std::string_view name, SweepIsolation dflt)
{
    if (name == "thread")
        return SweepIsolation::Thread;
    if (name == "process")
        return SweepIsolation::Process;
    // Anything unrecognized: the caller's safe default.
    return dflt;
}

SweepOptions
sweepOptionsFromEnv()
{
    // Centralized parsing (util/env.hh): an unrecognized value keeps
    // the safe default AND emits one typed warning naming the accepted
    // values, instead of the historical silent fallback.
    SweepOptions opts;
    opts.isolation = static_cast<SweepIsolation>(util::envChoice(
        "CRYPTARCH_SWEEP_ISOLATE",
        {{"thread", static_cast<int>(SweepIsolation::Thread)},
         {"process", static_cast<int>(SweepIsolation::Process)}},
        static_cast<int>(SweepIsolation::Thread)));
    if (const char *env = std::getenv("CRYPTARCH_SWEEP_JOURNAL"))
        opts.journalPath = env;
    opts.cellDeadlineSeconds =
        util::envDouble("CRYPTARCH_SWEEP_DEADLINE", 0);
    opts.respawnBudget = static_cast<unsigned>(
        util::envU64("CRYPTARCH_SWEEP_RESPAWNS", opts.respawnBudget));
    return opts;
}

namespace detail
{

std::vector<std::vector<uint32_t>>
groupCells(const std::vector<SweepCell> &cells,
           const std::vector<uint32_t> &todo)
{
    std::map<GroupKey, size_t> groupIndex;
    std::vector<std::vector<uint32_t>> groups;
    for (uint32_t i : todo) {
        auto [it, fresh] = groupIndex.try_emplace(keyOf(cells[i]),
                                                  groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

std::vector<uint32_t>
claimOrder(const std::vector<std::vector<uint32_t>> &groups)
{
    size_t total = 0;
    for (const auto &g : groups)
        total += g.size();
    std::vector<uint32_t> order;
    order.reserve(total);
    for (size_t round = 0; order.size() < total; round++)
        for (const auto &g : groups)
            if (round < g.size())
                order.push_back(g[round]);
    return order;
}

void
classifyFailure(SweepResult &r, std::exception_ptr ep)
{
    try {
        std::rethrow_exception(ep);
    } catch (const sim::ConfigRejected &e) {
        r.outcome = CellOutcome::Rejected;
        r.message = e.what();
    } catch (const isa::Trap &t) {
        // A forward-progress watchdog trip is a property of the
        // machine model, not the workload: its own outcome keeps
        // `trapped` meaning "the functional machine faulted".
        r.outcome = t.cause() == isa::TrapCause::NoProgress
            ? CellOutcome::Stalled
            : CellOutcome::Trapped;
        r.message = t.what();
    } catch (const verify::VerifyError &e) {
        r.outcome = CellOutcome::VerifyFailed;
        r.message = e.what();
    } catch (const std::exception &e) {
        r.outcome = CellOutcome::Error;
        r.message = e.what();
    } catch (...) {
        r.outcome = CellOutcome::Error;
        r.message = "unknown error";
    }
}

bool
isDeterministicFailure(std::exception_ptr ep)
{
    try {
        std::rethrow_exception(ep);
    } catch (const sim::ConfigRejected &) {
        return true;
    } catch (const isa::Trap &) {
        return true;
    } catch (const verify::VerifyError &) {
        return true;
    } catch (...) {
        return false;
    }
}

SweepResult
makeResultShell(const SweepCell &cell)
{
    SweepResult r;
    r.cipher = cell.cipher;
    r.variant = cell.variant;
    r.model = cell.model.name;
    r.bytes = cell.bytes;
    return r;
}

void
executeCell(const SweepCell &cell, TraceGroup &group, SweepResult &r)
{
    // The whole body is wrapped: an exception escaping any step —
    // std::bad_alloc while building the result included — marks the
    // cell Error instead of std::terminate-ing the sweep.
    try {
        std::call_once(group.once, [&]() {
            try {
                group.trace = recordKernelTrace(cell.cipher, cell.variant,
                                                cell.bytes);
            } catch (...) {
                group.recordError = std::current_exception();
                if (isDeterministicFailure(group.recordError))
                    return;
                // One retry for anything unrecognized (transient
                // allocation failure and the like).
                try {
                    group.trace = recordKernelTrace(cell.cipher,
                                                    cell.variant,
                                                    cell.bytes);
                    group.recordError = nullptr;
                } catch (...) {
                    group.recordError = std::current_exception();
                }
            }
        });
        if (group.recordError) {
            classifyFailure(r, group.recordError);
            return;
        }
        try {
            r.stats = group.trace.replay(cell.model);
        } catch (...) {
            std::exception_ptr ep = std::current_exception();
            if (!isDeterministicFailure(ep)) {
                // The same transient-failure allowance recording has:
                // one retry before the cell is marked Error.
                try {
                    r.stats = group.trace.replay(cell.model);
                    return;
                } catch (...) {
                    ep = std::current_exception();
                }
            }
            classifyFailure(r, ep);
        }
    } catch (...) {
        classifyFailure(r, std::current_exception());
    }
}

} // namespace detail

namespace
{

using detail::TraceGroup;

/**
 * Open the journal for @p cells, falling back to a fresh run when the
 * existing file is rejected. Cells whose journaled payloads load are
 * marked done with their recorded results; a payload the codec
 * rejects (possible only across a codec change — record checksums
 * already passed) degrades to rerunning that cell.
 */
void
resumeFromJournal(SweepJournal &journal, const std::string &path,
                  const std::vector<SweepCell> &cells,
                  std::vector<SweepResult> &results,
                  std::vector<char> &done)
{
    const uint64_t fp = gridFingerprint(cells);
    try {
        journal.open(path, fp, cells.size());
    } catch (const JournalError &e) {
        std::fprintf(stderr,
                     "sweep: journal %s rejected (%s); starting fresh\n",
                     path.c_str(), e.what());
        journal.openFresh(path, fp, cells.size());
        return;
    }
    for (const auto &[index, payload] : journal.loadedRecords()) {
        try {
            deserializeResultPayload(payload, results[index]);
            done[index] = 1;
        } catch (const JournalError &e) {
            std::fprintf(stderr,
                         "sweep: journal record for cell %u unusable "
                         "(%s); re-running it\n",
                         index, e.what());
        }
    }
}

void
runCellsThread(const std::vector<SweepCell> &cells,
               const std::vector<uint32_t> &todo,
               const SweepOptions &options,
               std::vector<SweepResult> &results, SweepJournal *journal)
{
    // Group table is fully built before workers start; workers only
    // race on each group's once_flag.
    const auto groups = detail::groupCells(cells, todo);
    std::vector<TraceGroup> traces(groups.size());
    std::vector<uint32_t> groupOf(cells.size());
    for (size_t g = 0; g < groups.size(); g++)
        for (uint32_t i : groups[g])
            groupOf[i] = static_cast<uint32_t>(g);

    const std::vector<uint32_t> order = detail::claimOrder(groups);
    std::atomic<size_t> next{0};
    std::mutex journalMutex;

    auto worker = [&]() {
        for (;;) {
            size_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= order.size())
                return;
            const uint32_t i = order[k];
            const SweepCell &cell = cells[i];
            SweepResult r = detail::makeResultShell(cell);
            detail::executeCell(cell, traces[groupOf[i]], r);
            if (journal) {
                const auto record = encodeResultRecord(i, r);
                std::lock_guard<std::mutex> lock(journalMutex);
                journal->append(record);
            }
            results[i] = std::move(r);
        }
    };

    unsigned n =
        options.threads ? options.threads : std::thread::hardware_concurrency();
    n = std::max(1u,
                 std::min<unsigned>(n, static_cast<unsigned>(todo.size())));

    std::vector<std::thread> pool;
    pool.reserve(n - 1);
    for (unsigned t = 0; t + 1 < n; t++)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
}

} // namespace

std::vector<SweepResult>
runCells(const std::vector<SweepCell> &cells, const SweepOptions &options)
{
    std::vector<SweepResult> results;
    results.reserve(cells.size());
    for (const auto &cell : cells)
        results.push_back(detail::makeResultShell(cell));
    if (cells.empty())
        return results;

    std::vector<char> done(cells.size(), 0);
    SweepJournal journal;
    if (!options.journalPath.empty())
        resumeFromJournal(journal, options.journalPath, cells, results,
                          done);

    std::vector<uint32_t> todo;
    todo.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); i++)
        if (!done[i])
            todo.push_back(static_cast<uint32_t>(i));
    if (todo.empty())
        return results;

    SweepJournal *jp = journal.isOpen() ? &journal : nullptr;
    if (options.isolation == SweepIsolation::Process)
        runCellsProcess(cells, todo, options, results, jp);
    else
        runCellsThread(cells, todo, options, results, jp);
    return results;
}

std::vector<SweepResult>
runCells(const std::vector<SweepCell> &cells, unsigned threads)
{
    SweepOptions options = sweepOptionsFromEnv();
    if (threads)
        options.threads = threads;
    return runCells(cells, options);
}

std::vector<SweepResult>
runSweep(const SweepSpec &spec, const SweepOptions &options)
{
    std::vector<SweepCell> cells;
    cells.reserve(spec.ciphers.size() * spec.variants.size()
                  * spec.models.size());
    for (auto cipher : spec.ciphers)
        for (auto variant : spec.variants)
            for (const auto &model : spec.models)
                cells.push_back({cipher, variant, model, spec.bytes});
    return runCells(cells, options);
}

std::vector<SweepResult>
runSweep(const SweepSpec &spec)
{
    return runSweep(spec, sweepOptionsFromEnv());
}

const SweepResult &
findResult(const std::vector<SweepResult> &results, crypto::CipherId cipher,
           kernels::KernelVariant variant, std::string_view model)
{
    for (const auto &r : results)
        if (r.cipher == cipher && r.variant == variant && r.model == model)
            return r;
    throw std::out_of_range("sweep: no result for ("
                            + crypto::cipherInfo(cipher).name + ", "
                            + kernels::variantName(variant) + ", "
                            + std::string(model) + ")");
}

} // namespace cryptarch::driver
