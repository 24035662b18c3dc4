/**
 * @file
 * Internal per-cell execution shared by the thread-pool sweep runner
 * (sweep.cc) and the forked process-pool workers (procpool.cc). Not
 * installed API: the contracts here (TraceGroup sharing, the
 * retry-once allowance, the never-throws guarantee) are documented on
 * driver::runCells.
 */

#ifndef CRYPTARCH_DRIVER_CELL_EXEC_HH
#define CRYPTARCH_DRIVER_CELL_EXEC_HH

#include <cstdint>
#include <exception>
#include <mutex>
#include <tuple>
#include <vector>

#include "driver/sweep.hh"
#include "driver/trace.hh"

namespace cryptarch::driver::detail
{

/**
 * Cells sharing a kernel share one lazily recorded trace — or one
 * cached recording failure, so a kernel that traps or fails the oracle
 * is still interpreted exactly once, not once per model.
 */
struct TraceGroup
{
    std::once_flag once;
    RecordedTrace trace;
    std::exception_ptr recordError;
};

/** The trace-sharing key: cells alike in these share a TraceGroup. */
using GroupKey = std::tuple<crypto::CipherId, kernels::KernelVariant, size_t>;

inline GroupKey
keyOf(const SweepCell &cell)
{
    return {cell.cipher, cell.variant, cell.bytes};
}

/**
 * The order in which the thread pool claims the cells of @p todo
 * (indices into @p cells): one cell per trace group in turn,
 * round-robin over the groups in order of first appearance, each
 * group's cells kept in their @p todo order. Grids are group-major, so
 * claiming them in index order would put every worker on the first
 * group's once_flag while one thread records it; interleaved, the
 * first G claims start G different recordings. Results land in fixed
 * slots, so the order cannot change any output.
 */
std::vector<uint32_t> claimOrder(const std::vector<SweepCell> &cells,
                                 const std::vector<uint32_t> &todo);

/** Fill outcome/message from the exception behind @p ep. */
void classifyFailure(SweepResult &r, std::exception_ptr ep);

/** Deterministic failures are not worth a second functional run. */
bool isDeterministicFailure(std::exception_ptr ep);

/** A result shell: @p cell's coordinates, no stats yet. */
SweepResult makeResultShell(const SweepCell &cell);

/**
 * Record (once per @p group, with the transient-failure retry) and
 * replay @p cell into @p r. Replay failures get the same retry-once
 * allowance as recording. Never throws: any escaping exception —
 * including one raised while building the result — classifies the
 * cell instead of propagating.
 */
void executeCell(const SweepCell &cell, TraceGroup &group, SweepResult &r);

} // namespace cryptarch::driver::detail

#endif // CRYPTARCH_DRIVER_CELL_EXEC_HH
