#include "verify/faults.hh"

#include <cstdio>
#include <vector>

#include "isa/packed_trace.hh"
#include "util/xorshift.hh"
#include "verify/oracle.hh"

namespace cryptarch::verify
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::Register: return "register";
      case FaultSite::Memory: return "memory";
      case FaultSite::TraceByte: return "trace";
    }
    return "?";
}

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::DetectedTrap: return "trap";
      case FaultOutcome::DetectedOracle: return "oracle";
      case FaultOutcome::DetectedTrace: return "trace";
      case FaultOutcome::Masked: return "masked";
    }
    return "?";
}

void
FaultTally::add(FaultOutcome outcome)
{
    injections++;
    switch (outcome) {
      case FaultOutcome::DetectedTrap: detectedTrap++; break;
      case FaultOutcome::DetectedOracle: detectedOracle++; break;
      case FaultOutcome::DetectedTrace: detectedTrace++; break;
      case FaultOutcome::Masked: masked++; break;
    }
}

namespace
{

/** Collects the packed stream of a clean functional run. */
struct PackSink : isa::TraceSink
{
    isa::PackedTrace trace;

    void
    emit(const isa::DynInst &inst) override
    {
        trace.append(inst);
    }
};

/**
 * Everything one (cipher, variant, bytes) target needs across a run of
 * injections: the kernel, its session material, the clean dynamic
 * instruction count (to place in-run faults), and the clean serialized
 * trace (the TraceByte corruption target). Built once per sweep.
 *
 * The session recipe mirrors driver::makeWorkload (same seed constant)
 * so injections exercise the standard bench sessions; the verify layer
 * regenerates it rather than linking the driver, which sits above it.
 */
struct InjectionTarget
{
    kernels::KernelBuild build;
    std::vector<uint8_t> key, iv, plaintext;
    uint64_t cleanInsts = 0;
    std::vector<uint8_t> cleanStream;

    InjectionTarget(crypto::CipherId cipher,
                    kernels::KernelVariant variant, size_t session_bytes)
    {
        const auto &info = crypto::cipherInfo(cipher);
        util::Xorshift64 rng(0xBE7CB + static_cast<uint64_t>(cipher));
        key = rng.bytes(info.keyBits / 8);
        iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
        plaintext = rng.bytes(session_bytes);
        build = kernels::buildKernel(cipher, variant, key, iv,
                                     session_bytes);

        isa::Machine m;
        build.install(m, kernels::toWordImage(cipher, plaintext));
        PackSink sink;
        m.run(build.program, &sink);
        cleanInsts = sink.trace.size();
        cleanStream = sink.trace.serialize();
        // The harness only classifies divergence, so the baseline must
        // itself be correct: a wrong clean run would misclassify every
        // masked fault.
        verifyKernelOutput(build, m, key, iv, plaintext);
    }
};

/** The byte spans the kernel reads or writes, as (base, len) pairs. */
std::vector<std::pair<uint64_t, uint64_t>>
touchedSpans(const kernels::KernelBuild &build)
{
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    for (const auto &[addr, bytes] : build.memInit)
        if (!bytes.empty())
            spans.emplace_back(addr, bytes.size());
    spans.emplace_back(build.inAddr, build.sessionBytes);
    spans.emplace_back(build.outAddr, build.sessionBytes);
    return spans;
}

InjectionResult
classifyMachineFault(const InjectionTarget &target,
                     const isa::InjectedFault &fault)
{
    isa::Machine m;
    target.build.install(
        m, kernels::toWordImage(target.build.cipher, target.plaintext));
    m.scheduleFault(fault);
    try {
        // A corrupted loop counter or pointer can run away; a tight
        // fuel bound turns that into a fuel-exhausted trap instead of
        // a long spin.
        m.run(target.build.program, nullptr,
              target.cleanInsts * 4 + 10000);
    } catch (const isa::Trap &t) {
        return {FaultOutcome::DetectedTrap, t.what()};
    }
    try {
        verifyKernelOutput(target.build, m, target.key, target.iv,
                           target.plaintext);
    } catch (const VerifyError &e) {
        return {FaultOutcome::DetectedOracle, e.what()};
    }
    return {FaultOutcome::Masked, ""};
}

InjectionResult
classifyOne(const InjectionTarget &target, FaultSite site, uint64_t seed)
{
    // Independent per-seed stream; the site goes into the seed so the
    // three sites of one seed are not correlated.
    util::Xorshift64 rng(0x5EED0000 + seed * 2654435761u
                         + static_cast<uint64_t>(site));

    switch (site) {
      case FaultSite::Register: {
        isa::InjectedFault f;
        f.seq = rng.next() % target.cleanInsts;
        f.isReg = true;
        // Skip the hardwired zero register: writes to it are dropped
        // by construction, which would dilute coverage with injections
        // that cannot land.
        f.target = rng.next() % (isa::num_regs - 1);
        if (f.target == isa::reg_zero.n)
            f.target = isa::num_regs - 1;
        f.xorMask = 1ull << (rng.next() % 64);
        return classifyMachineFault(target, f);
      }
      case FaultSite::Memory: {
        const auto spans = touchedSpans(target.build);
        uint64_t total = 0;
        for (const auto &[base, len] : spans)
            total += len;
        uint64_t offset = rng.next() % total;
        uint64_t addr = 0;
        for (const auto &[base, len] : spans) {
            if (offset < len) {
                addr = base + offset;
                break;
            }
            offset -= len;
        }
        isa::InjectedFault f;
        f.seq = rng.next() % target.cleanInsts;
        f.isReg = false;
        f.target = addr;
        f.xorMask = 1u << (rng.next() % 8);
        return classifyMachineFault(target, f);
      }
      case FaultSite::TraceByte: {
        std::vector<uint8_t> corrupt = target.cleanStream;
        const size_t pos = rng.next() % corrupt.size();
        corrupt[pos] ^= 1u << (rng.next() % 8);
        try {
            auto t = isa::PackedTrace::deserialize(corrupt);
            // Deserialization accepted the stream; drain a reader so a
            // decode-time defect would still surface as a trace error.
            for (auto r = t.reader(); !r.done();)
                r.next();
        } catch (const isa::TraceFormatError &e) {
            return {FaultOutcome::DetectedTrace, e.what()};
        }
        return {FaultOutcome::Masked, ""};
      }
    }
    return {FaultOutcome::Masked, ""};
}

} // namespace

InjectionResult
injectAndClassify(crypto::CipherId cipher, kernels::KernelVariant variant,
                  FaultSite site, uint64_t seed, size_t session_bytes)
{
    InjectionTarget target(cipher, variant, session_bytes);
    return classifyOne(target, site, seed);
}

FaultTally
injectionSweep(crypto::CipherId cipher, kernels::KernelVariant variant,
               FaultSite site, uint64_t seed0, unsigned count,
               size_t session_bytes)
{
    InjectionTarget target(cipher, variant, session_bytes);
    FaultTally tally;
    for (unsigned i = 0; i < count; i++)
        tally.add(classifyOne(target, site, seed0 + i).outcome);
    return tally;
}

} // namespace cryptarch::verify
