#include "ssl/session.hh"

#include <stdexcept>

#include "kernels/kernel.hh"
#include "sim/pipeline.hh"
#include "util/xorshift.hh"

namespace cryptarch::ssl
{

using util::BigInt;
using util::Xorshift64;

HandshakeOps
measureHandshakeOps(unsigned rsaBits, uint64_t seed)
{
    Xorshift64 rng(seed);
    RsaKey key = generateRsaKey(rsaBits, rng);
    BigInt premaster =
        BigInt::mod(BigInt::randomBits(rsaBits - 2, rng), key.n);

    HandshakeOps ops;
    // Separate resets: the client's wrap and the server's unwrap each
    // own their counter window, so neither side's multiplies can leak
    // into the other's bill.
    BigInt::resetMulOps();
    BigInt wrapped = rsaPublic(premaster, key); // client side
    ops.clientMulOps = BigInt::mulOps();
    BigInt::resetMulOps();
    (void)rsaPrivate(wrapped, key); // server side
    ops.serverMulOps = BigInt::mulOps();
    return ops;
}

SessionModel::SessionModel(crypto::CipherId bulk_cipher,
                           SessionModelParams p)
    : cipher(bulk_cipher), params(p)
{
    // --- handshake cost: count word multiplies of a real handshake ---
    HandshakeOps ops = measureHandshakeOps(params.rsaBits);
    clientHandshakeCyc =
        static_cast<double>(ops.clientMulOps) * params.cyclesPerWordMul;
    serverHandshakeCyc =
        static_cast<double>(ops.serverMulOps) * params.cyclesPerWordMul;

    // --- bulk cost: simulate the cipher kernel at two probe lengths;
    // the marginal slope is the steady-state rate and the intercept the
    // one-time prologue, so neither contaminates the other ---
    const auto &info = crypto::cipherInfo(cipher);
    if (params.probeBytesLo >= params.probeBytesHi
        || params.probeBytesLo % info.blockBytes
        || params.probeBytesHi % info.blockBytes)
        throw std::invalid_argument(
            "SessionModel: probe sizes must be increasing multiples of "
            "the cipher block size");

    Xorshift64 rng(0xB0B5CA1E);
    auto cipher_key = rng.bytes(info.keyBits / 8);
    auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);

    auto probe_cycles = [&](size_t probe_bytes, sim::SimStats &stats) {
        auto build = kernels::buildKernel(
            cipher, kernels::KernelVariant::BaselineRot, cipher_key, iv,
            probe_bytes);
        isa::Machine m;
        auto pt = rng.bytes(probe_bytes);
        build.install(m, kernels::toWordImage(cipher, pt));
        sim::OooScheduler sched(params.model);
        m.run(build.program, &sched, 1ull << 30);
        stats = sched.finish();
        return static_cast<double>(stats.cycles);
    };
    double cyc_lo = probe_cycles(params.probeBytesLo, probes[0]);
    double cyc_hi = probe_cycles(params.probeBytesHi, probes[1]);
    bulkCpb = (cyc_hi - cyc_lo)
        / static_cast<double>(params.probeBytesHi - params.probeBytesLo);
    prologueCyc =
        cyc_lo - bulkCpb * static_cast<double>(params.probeBytesLo);

    // --- setup cost: instruction estimate over the measured IPC ---
    uint64_t setup_insts = info.isStream
        ? crypto::makeStreamCipher(cipher)->setupOpEstimate()
        : crypto::makeBlockCipher(cipher)->setupOpEstimate();
    setupCyc = static_cast<double>(setup_insts) / probes[1].ipc();
}

SessionCost
SessionModel::cost(size_t bytes) const
{
    SessionCost c;
    c.publicKeyCycles = serverHandshakeCyc;
    c.privateKeyCycles =
        setupCyc + prologueCyc + bulkCpb * static_cast<double>(bytes);
    c.otherCycles = params.requestOverheadCycles
        + params.perByteOverheadCycles * static_cast<double>(bytes);
    return c;
}

} // namespace cryptarch::ssl
