#include "isa/packed_trace.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "util/bytes.hh"
#include "util/checksum.hh"

namespace cryptarch::isa
{

const char *
traceErrorKindName(TraceErrorKind kind)
{
    switch (kind) {
      case TraceErrorKind::BadMagic: return "bad-magic";
      case TraceErrorKind::BadVersion: return "bad-version";
      case TraceErrorKind::Truncated: return "truncated";
      case TraceErrorKind::BadChecksum: return "bad-checksum";
      case TraceErrorKind::Inconsistent: return "inconsistent";
      case TraceErrorKind::Overrun: return "overrun";
    }
    return "?";
}

namespace
{

[[noreturn]] void
inconsistent(uint64_t index, const std::string &what)
{
    throw TraceFormatError(TraceErrorKind::Inconsistent,
                           "instruction " + std::to_string(index) + ": "
                               + what);
}

} // namespace

inline uint8_t
PackedTrace::flagsOf(const DynInst &inst)
{
    // A conditional branch's outcome is per execution, in the bits.
    const bool staticTaken =
        inst.taken && !(inst.branch && inst.op != Opcode::Br);
    return static_cast<uint8_t>(
        (inst.numSrcs & f_num_srcs) | (inst.isLoad ? f_load : 0)
        | (inst.isStore ? f_store : 0) | (inst.branch ? f_branch : 0)
        | (staticTaken ? f_taken : 0) | (inst.aliased ? f_aliased : 0)
        | f_present);
}

PackedTrace::StaticInst
PackedTrace::staticOf(const DynInst &inst)
{
    StaticInst e;
    e.op = inst.op;
    e.cls = inst.cls;
    e.srcs = inst.srcs;
    e.dest = inst.dest;
    e.size = inst.size;
    e.addrSrc = inst.addrSrc;
    e.tableId = inst.tableId;
    e.flags = flagsOf(inst);
    e.conditional = inst.branch && inst.op != Opcode::Br;
    return e;
}

inline bool
PackedTrace::sameStatic(const StaticInst &e, const DynInst &inst)
{
    // Field by field against the DynInst, the recording hot path.
    return e.op == inst.op && e.cls == inst.cls
        && e.srcs[0] == inst.srcs[0] && e.srcs[1] == inst.srcs[1]
        && e.srcs[2] == inst.srcs[2] && e.dest == inst.dest && e.size == inst.size
        && e.addrSrc == inst.addrSrc && e.tableId == inst.tableId
        && e.flags == flagsOf(inst);
}

const char *
PackedTrace::invalidStatic(const StaticInst &e)
{
    if (e.op > Opcode::Sboxx)
        return "opcode out of range";
    if (static_cast<size_t>(e.cls) >= num_op_classes)
        return "op class out of range";
    for (uint8_t r : e.srcs)
        if (r >= num_regs)
            return "source register out of range";
    if (e.dest >= num_regs || e.addrSrc >= num_regs)
        return "register out of range";
    if (e.conditional && (e.flags & f_taken))
        return "conditional branch with a static outcome";
    return nullptr;
}

inline void
PackedTrace::record(const StaticInst &e, const DynInst &inst)
{
    if (e.flags & (f_load | f_store))
        addrs_.push_back(static_cast<uint32_t>(inst.addr));
    if (e.conditional) {
        if (nBits_ % 64 == 0)
            bits_.push_back(0);
        bits_.back() |= static_cast<uint64_t>(inst.taken) << (nBits_ % 64);
        nBits_++;
    }
    if (count_ == 0)
        startPc_ = inst.pc;
    nextPc_ = inst.nextPc;
    count_++;
}

void
PackedTrace::append(const DynInst &inst)
{
    // Fast path: a revisit that repeats its static fields and its
    // successor. First visits, first outcomes of a branch and every
    // violation take appendChecked().
    if (inst.seq == count_ && (count_ == 0 || inst.pc == nextPc_)
        && inst.pc < table_.size() && inst.nextPc < table_.size()
        && inst.numSrcs <= 3) {
        // sameStatic() also requires the entry to be present.
        const StaticInst &e = table_[inst.pc];
        const bool hasAddr = e.flags & (f_load | f_store);
        if (sameStatic(e, inst)
            && (inst.taken ? e.target : e.fallthrough) == inst.nextPc
            && (hasAddr ? inst.addr >> 32 == 0 : inst.addr == 0)) {
            record(e, inst);
            return;
        }
    }
    appendChecked(inst);
}

void
PackedTrace::appendChecked(const DynInst &inst)
{
    const uint64_t i = count_;
    if (inst.seq != i)
        inconsistent(i, "seq " + std::to_string(inst.seq)
                            + " is not the append index");
    if (i != 0 && inst.pc != nextPc_)
        inconsistent(i, "pc " + std::to_string(inst.pc)
                            + " is not the previous successor "
                            + std::to_string(nextPc_));
    if (inst.pc >= max_static_pcs || inst.nextPc >= max_static_pcs)
        inconsistent(i, "pc beyond the static table limit");
    if (inst.numSrcs > 3)
        inconsistent(i, "more than three sources");

    // Check everything before changing anything, so a rejected append
    // leaves the trace as it was.
    const StaticInst s = staticOf(inst);
    const bool known = inst.pc < table_.size()
        && (table_[inst.pc].flags & f_present);
    if (known) {
        const StaticInst &e = table_[inst.pc];
        if (!sameStatic(e, inst))
            inconsistent(i, "static fields differ from the first visit "
                            "to pc " + std::to_string(inst.pc));
        const uint32_t succ = inst.taken ? e.target : e.fallthrough;
        if (succ != no_pc && succ != inst.nextPc)
            inconsistent(i, "successor " + std::to_string(inst.nextPc)
                                + " differs from the earlier "
                                + std::to_string(succ));
    } else if (const char *why = invalidStatic(s)) {
        inconsistent(i, why);
    }
    const bool hasAddr = s.flags & (f_load | f_store);
    if (hasAddr && inst.addr >> 32)
        inconsistent(i, "address at or above 2^32");
    if (!hasAddr && inst.addr != 0)
        inconsistent(i, "non-memory instruction carries an address");

    const size_t need = std::max(inst.pc, inst.nextPc) + size_t{1};
    if (table_.size() < need)
        table_.resize(need);
    StaticInst &e = table_[inst.pc];
    if (!known)
        e = s;
    (inst.taken ? e.target : e.fallthrough) = inst.nextPc;
    record(e, inst);
}

size_t
PackedTrace::packedBytes() const
{
    return staticBytes() + addrs_.size() * sizeof(uint32_t)
        + bits_.size() * sizeof(uint64_t);
}

void
PackedTrace::clear()
{
    *this = PackedTrace();
}

namespace
{

/** Serialized-stream layout constants. */
constexpr uint8_t trace_magic[4] = {'C', 'P', 'T', 'R'};
constexpr uint32_t trace_version = 3;
constexpr size_t header_bytes = 48;
/** Header bytes before the checksum field, which the checksum covers. */
constexpr size_t checked_header_bytes = 40;
constexpr size_t entry_bytes = 18;

void
shortStream(const char *what, size_t need, size_t left)
{
    throw TraceFormatError(TraceErrorKind::Truncated,
                           std::string("stream ends inside ") + what
                               + " (" + std::to_string(left)
                               + " bytes left, " + std::to_string(need)
                               + " needed)");
}

} // namespace

std::vector<uint8_t>
PackedTrace::serialize() const
{
    const size_t nBitBytes = (nBits_ + 7) / 8;
    std::vector<uint8_t> out(std::begin(trace_magic), std::end(trace_magic));
    out.reserve(header_bytes + table_.size() * entry_bytes
                + addrs_.size() * 4 + nBitBytes);
    util::putU32(out, trace_version);
    util::putU64(out, count_);
    util::putU32(out, static_cast<uint32_t>(table_.size()));
    util::putU32(out, startPc_);
    util::putU64(out, addrs_.size());
    util::putU64(out, nBits_);
    util::putU64(out, 0); // checksum, filled in below

    for (const StaticInst &e : table_) {
        util::putU8(out, static_cast<uint8_t>(e.op));
        util::putU8(out, static_cast<uint8_t>(e.cls));
        util::putU8(out, e.dest);
        util::putU8(out, e.addrSrc);
        util::putU8(out, e.tableId);
        util::putU8(out, e.size);
        for (uint8_t r : e.srcs)
            util::putU8(out, r);
        util::putU8(out, e.flags);
        util::putU32(out, e.fallthrough);
        util::putU32(out, e.target);
    }
    for (uint32_t a : addrs_)
        util::putU32(out, a);
    for (size_t b = 0; b < nBitBytes; b++)
        util::putU8(out, static_cast<uint8_t>(bits_[b / 8] >> (8 * (b % 8))));

    const uint64_t checksum = util::fnv1a64(
        out.data() + header_bytes, out.size() - header_bytes,
        util::fnv1a64(out.data(), checked_header_bytes));
    for (size_t b = 0; b < 8; b++)
        out[checked_header_bytes + b] =
            static_cast<uint8_t>(checksum >> (8 * b));
    return out;
}

PackedTrace
PackedTrace::deserialize(std::span<const uint8_t> bytes)
{
    util::ByteReader in(bytes, shortStream);
    if (std::memcmp(in.bytes(4, "header").data(), trace_magic, 4) != 0)
        throw TraceFormatError(TraceErrorKind::BadMagic,
                               "stream does not begin with 'CPTR'");
    const uint32_t version = in.u32("header");
    if (version != trace_version)
        throw TraceFormatError(TraceErrorKind::BadVersion,
                               "version " + std::to_string(version)
                                   + ", expected "
                                   + std::to_string(trace_version));
    const uint64_t n = in.u64("header");
    const uint32_t nTable = in.u32("header");
    const uint32_t startPc = in.u32("header");
    const uint64_t nAddrs = in.u64("header");
    const uint64_t nBits = in.u64("header");
    const uint64_t checksum = in.u64("header");

    // Counts come from the stream: bound them by its length before
    // sizing anything from them.
    if (nAddrs > bytes.size() / 4 || nBits / 8 > bytes.size())
        throw TraceFormatError(TraceErrorKind::Truncated,
                               "header counts exceed stream length");
    const uint64_t payload_bytes =
        uint64_t{nTable} * entry_bytes + nAddrs * 4 + (nBits + 7) / 8;
    if (in.remaining() != payload_bytes)
        throw TraceFormatError(
            TraceErrorKind::Truncated,
            "payload is " + std::to_string(in.remaining())
                + " bytes, header promises "
                + std::to_string(payload_bytes));
    if (util::fnv1a64(bytes.data() + header_bytes, payload_bytes,
                      util::fnv1a64(bytes.data(), checked_header_bytes))
        != checksum)
        throw TraceFormatError(TraceErrorKind::BadChecksum,
                               "checksum mismatch");

    auto badEntry = [](uint32_t pc, const std::string &what) {
        throw TraceFormatError(TraceErrorKind::Inconsistent,
                               "table entry " + std::to_string(pc) + ": "
                                   + what);
    };
    if (nTable > max_static_pcs)
        badEntry(nTable, "beyond the static table limit");

    PackedTrace t;
    t.table_.resize(nTable);
    for (uint32_t pc = 0; pc < nTable; pc++) {
        StaticInst &e = t.table_[pc];
        e.op = static_cast<Opcode>(in.u8("table"));
        e.cls = static_cast<OpClass>(in.u8("table"));
        e.dest = in.u8("table");
        e.addrSrc = in.u8("table");
        e.tableId = in.u8("table");
        e.size = in.u8("table");
        for (uint8_t &r : e.srcs)
            r = in.u8("table");
        e.flags = in.u8("table");
        e.fallthrough = in.u32("table");
        e.target = in.u32("table");

        if (!(e.flags & f_present)) {
            // An unvisited pc is stored as a default entry.
            const StaticInst blank;
            if (std::memcmp(&e, &blank, offsetof(StaticInst, flags) + 1))
                badEntry(pc, "unvisited entry is not blank");
            continue;
        }
        e.conditional = (e.flags & f_branch) && e.op != Opcode::Br;
        if (const char *why = invalidStatic(e))
            badEntry(pc, why);
        for (uint32_t succ : {e.fallthrough, e.target})
            if (succ != no_pc && succ >= nTable)
                badEntry(pc, "successor " + std::to_string(succ)
                                 + " outside the table");
    }
    t.addrs_.resize(nAddrs);
    for (uint32_t &a : t.addrs_)
        a = in.u32("addresses");
    t.bits_.assign((nBits + 63) / 64, 0);
    for (size_t b = 0; b < (nBits + 7) / 8; b++)
        t.bits_[b / 8] |= static_cast<uint64_t>(in.u8("branch bits"))
            << (8 * (b % 8));
    if (nBits % 64 && t.bits_.back() >> (nBits % 64))
        throw TraceFormatError(TraceErrorKind::Inconsistent,
                               "padding bits after the last branch bit");
    t.nBits_ = nBits;
    t.count_ = n;
    t.startPc_ = startPc;

    // Walk the pc chain once, so no Reader can leave a column.
    uint32_t pc = startPc;
    size_t addrPos = 0, bitPos = 0;
    for (uint64_t i = 0; i < n; i++) {
        if (pc >= nTable || !(t.table_[pc].flags & f_present))
            inconsistent(i, "pc " + std::to_string(pc)
                                + " has no table entry");
        const StaticInst &e = t.table_[pc];
        if ((e.flags & (f_load | f_store)) && addrPos++ == nAddrs)
            throw TraceFormatError(TraceErrorKind::Overrun,
                                   "address column exhausted at "
                                   "instruction " + std::to_string(i));
        bool taken = e.flags & f_taken;
        if (e.conditional) {
            if (bitPos == nBits)
                throw TraceFormatError(TraceErrorKind::Overrun,
                                       "branch bits exhausted at "
                                       "instruction " + std::to_string(i));
            taken = t.bit(bitPos++);
        }
        pc = taken ? e.target : e.fallthrough;
        if (pc == no_pc)
            inconsistent(i, "successor never recorded");
    }
    if (addrPos != nAddrs || bitPos != nBits)
        throw TraceFormatError(TraceErrorKind::Inconsistent,
                               "the pc walk leaves addresses or branch "
                               "bits unused");
    t.nextPc_ = n ? pc : 0;
    return t;
}

} // namespace cryptarch::isa
