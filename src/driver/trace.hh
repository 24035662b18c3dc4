/**
 * @file
 * Record-once / replay-many dynamic kernel traces.
 *
 * The functional Machine is deterministic, so the dynamic instruction
 * stream of a (cipher, variant, session) triple is a pure function of
 * its inputs — it does not depend on the timing model observing it.
 * RecordedTrace captures that stream through the ordinary
 * isa::TraceSink interface and can replay it into any number of
 * sim::OooScheduler instances, which is how the sweep runner turns a
 * (cipher x variant x model) grid into one functional interpretation
 * per kernel instead of one per timing model — the record/replay
 * structure SimpleScalar-style studies exploit.
 *
 * Every stream is recorded by the reference interpreter (isa::Machine)
 * and stored as a PackedTrace (a static table per pc plus one address
 * per memory access and one bit per conditional branch, 1.3 B/inst;
 * see isa/packed_trace.hh); replay walks it on the fly.
 */

#ifndef CRYPTARCH_DRIVER_TRACE_HH
#define CRYPTARCH_DRIVER_TRACE_HH

#include <cstdint>
#include <vector>

#include "driver/workload.hh"
#include "isa/machine.hh"
#include "isa/packed_trace.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"

namespace cryptarch::driver
{

// The packed encoding lives in src/isa/ (it encodes isa::DynInst and
// the verify layer corrupts serialized streams without linking the
// driver); these aliases keep the historical driver:: spellings valid.
using isa::PackedTrace;
using isa::TraceErrorKind;
using isa::TraceFormatError;

// ---------------------------------------------------------------------
// Inert stubs. The threaded record backend, its first-use gate and
// loop-compressed traces were removed; the benchmark harness
// (perfbench/cryptbench.cc) still names the APIs below. Each stays only
// so the benchmark builds, until the benchmark's next revision: the
// gate calls do nothing and count zero, the removed RecordTiming
// phases read zero, and no trace reports a compression attempt.

/** Stub: compression outcomes the harness tests for. */
enum class CompressOutcome : uint8_t { NotAttempted, Accepted };

/** Stub: there is no backend gate to reset. */
inline void resetExecBackendGate() {}
/** Stub: always 0 (no backend gate runs). */
inline uint64_t backendGateChecks() { return 0; }
/** Stub: always 0 (no backend gate runs). */
inline uint64_t backendGateFallbacks() { return 0; }

/** Stub: RecordTiming phases of the removed paths, always 0. */
struct RemovedRecordPhases
{
    double decodeSeconds = 0;   ///< stub: was threaded pre-decode
    double gateSeconds = 0;     ///< stub: was the first-use gate
    double compressSeconds = 0; ///< stub: was compression + check
};

/** Stub: RecordedTrace accessors of the removed compression path. */
class RemovedTraceAccessors
{
  public:
    /** Stub: traces are never compressed. */
    CompressOutcome
    compressOutcome() const
    {
        return CompressOutcome::NotAttempted;
    }
};

// End of inert stubs.
// ---------------------------------------------------------------------

/**
 * Where recordKernelTrace's wall-clock time went, in seconds. The
 * fields are disjoint phases of the call, so their sum never exceeds
 * its wall clock (the driver tests assert it).
 */
struct RecordTiming : RemovedRecordPhases
{
    double setupSeconds = 0;  ///< workload synthesis + kernel build
    double recordSeconds = 0; ///< the trace-producing run
    double verifySeconds = 0; ///< record-time output oracle
};

/**
 * A captured dynamic instruction stream, stored packed (see
 * packed_trace.hh). Result values are dropped at record time — no
 * timing model reads them, and the value-prediction studies attach
 * their sinks live to the Machine instead of replaying.
 */
class RecordedTrace : public isa::TraceSink, public RemovedTraceAccessors
{
  public:
    void
    emit(const isa::DynInst &inst) override
    {
        packed.append(inst);
    }

    /** Feed the captured stream, in order, into any sink. */
    void replay(isa::TraceSink &sink) const;

    /** Replay into a fresh OooScheduler for @p cfg; returns its stats. */
    sim::SimStats replay(const sim::MachineConfig &cfg) const;

    /** Dynamic instruction count (the 1-CPI machine's cycle count). */
    uint64_t instructions() const { return packed.size(); }

    bool empty() const { return packed.empty(); }

    /**
     * Bytes held by the static table, address column and branch bits.
     * This is what BENCH_simspeed.json reports — measured, never
     * extrapolated.
     */
    size_t storedBytes() const { return packed.packedBytes(); }

    /** The stored stream. */
    const PackedTrace &packedStream() const { return packed; }

  private:
    PackedTrace packed;
};

/**
 * Build the (cipher, variant, direction) kernel over the standard
 * deterministic workload for @p bytes, run it functionally exactly
 * once on the interpreter, and capture the trace. Increments
 * functionalRuns().
 *
 * Every recording is oracle-checked before any model replays it: the
 * machine's output buffer is compared byte-for-byte against the
 * reference cipher (decrypt kernels consume the reference ciphertext
 * and must recover the plaintext). A mismatch throws
 * verify::VerifyError, so no timing figure can be computed from a
 * functionally wrong run.
 *
 * @p timing, when non-null, receives the wall-clock split between
 * setup, the functional run and the oracle — the bench drivers report
 * these as separate phases.
 */
RecordedTrace recordKernelTrace(crypto::CipherId cipher,
                                kernels::KernelVariant variant,
                                size_t bytes = session_bytes,
                                kernels::KernelDirection direction
                                    = kernels::KernelDirection::Encrypt,
                                RecordTiming *timing = nullptr);

/**
 * Process-wide count of functional Machine interpretations performed
 * through the driver — the instrumentation the driver tests use to
 * prove a sweep interprets each kernel exactly once, no matter how
 * many timing models it feeds.
 */
uint64_t functionalRuns();

} // namespace cryptarch::driver

#endif // CRYPTARCH_DRIVER_TRACE_HH
