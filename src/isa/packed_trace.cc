#include "isa/packed_trace.hh"

#include <cstring>

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

void
PackedTrace::overrun(const char *table, size_t index)
{
    throw TraceFormatError(TraceErrorKind::Overrun,
                           std::string(table)
                               + " side table exhausted decoding "
                                 "instruction "
                               + std::to_string(index));
}

uint16_t
PackedTrace::sizeCode(uint8_t size)
{
    switch (size) {
    case 0:
        return 0;
    case 1:
        return 1;
    case 2:
        return 2;
    case 4:
        return 3;
    case 8:
        return 4;
    default:
        assert(!"unencodable access size");
        return 0;
    }
}

void
PackedTrace::append(const DynInst &inst, bool keepResult)
{
    assert(inst.seq == size() && "seq must equal append index");
    assert(inst.numSrcs <= 3);

    uint16_t flags = inst.numSrcs & num_srcs_mask;
    if (inst.isLoad)
        flags |= f_load;
    if (inst.isStore)
        flags |= f_store;
    if (inst.branch)
        flags |= f_branch;
    if (inst.taken)
        flags |= f_taken;
    if (inst.aliased)
        flags |= f_aliased;
    flags |= sizeCode(inst.size) << size_code_shift;
    if (inst.addr != 0) {
        flags |= f_has_addr;
        if (inst.addr >> 32) {
            flags |= f_wide_addr;
            addrWide_.push_back(inst.addr);
        } else {
            addr32_.push_back(static_cast<uint32_t>(inst.addr));
        }
    }
    if (inst.nextPc != inst.pc + 1) {
        flags |= f_next_pc_exc;
        nextPcExc_.push_back(inst.nextPc);
    }
    if (keepResult && inst.result != 0) {
        flags |= f_has_result;
        result_.push_back(inst.result);
    }

    std::array<uint8_t, row_bytes> row;
    row[off_pc] = static_cast<uint8_t>(inst.pc);
    row[off_pc + 1] = static_cast<uint8_t>(inst.pc >> 8);
    row[off_pc + 2] = static_cast<uint8_t>(inst.pc >> 16);
    row[off_pc + 3] = static_cast<uint8_t>(inst.pc >> 24);
    row[off_op] = static_cast<uint8_t>(inst.op);
    row[off_cls] = static_cast<uint8_t>(inst.cls);
    row[off_dest] = inst.dest;
    row[off_addr_src] = inst.addrSrc;
    row[off_table_id] = inst.tableId;
    row[off_srcs] = inst.srcs[0];
    row[off_srcs + 1] = inst.srcs[1];
    row[off_srcs + 2] = inst.srcs[2];
    row[off_flags] = static_cast<uint8_t>(flags);
    row[off_flags + 1] = static_cast<uint8_t>(flags >> 8);
    fixed_.push_back(row);
}

void
PackedTrace::reserve(size_t n)
{
    fixed_.reserve(n);
}

size_t
PackedTrace::packedBytes() const
{
    return fixed_.size() * row_bytes
        + addr32_.size() * sizeof(uint32_t)
        + addrWide_.size() * sizeof(uint64_t)
        + nextPcExc_.size() * sizeof(uint32_t)
        + result_.size() * sizeof(uint64_t);
}

namespace
{

/** Serialized-stream layout constants. */
constexpr uint8_t trace_magic[4] = {'C', 'P', 'T', 'R'};
constexpr uint32_t trace_version = 1;
constexpr size_t header_bytes = 56;

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (unsigned i = 0; i < 4; i++)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (unsigned i = 0; i < 8; i++)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/** Bounded little-endian cursor over a deserializing stream. */
struct ByteCursor
{
    std::span<const uint8_t> bytes;
    size_t pos = 0;

    size_t remaining() const { return bytes.size() - pos; }

    void
    need(size_t n, const char *what)
    {
        if (remaining() < n)
            throw TraceFormatError(
                TraceErrorKind::Truncated,
                std::string("stream ends inside ") + what + " ("
                    + std::to_string(remaining()) + " bytes left, "
                    + std::to_string(n) + " needed)");
    }

    uint8_t u8() { return bytes[pos++]; }

    uint16_t
    u16()
    {
        uint16_t v = static_cast<uint16_t>(bytes[pos])
            | static_cast<uint16_t>(bytes[pos + 1]) << 8;
        pos += 2;
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (unsigned i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(bytes[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        for (unsigned i = 0; i < 8; i++)
            v |= static_cast<uint64_t>(bytes[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }
};

} // namespace

std::vector<uint8_t>
PackedTrace::serialize() const
{
    const size_t n = size();
    std::vector<uint8_t> out;
    out.reserve(header_bytes + packedBytes());

    // Payload first (appended after the header below); checksum needs
    // it, so build it into a scratch buffer. The serialized payload is
    // per-column even though the in-memory records are interleaved —
    // the format (and its checksums in existing artifacts) predates
    // the interleaving.
    std::vector<uint8_t> payload;
    payload.reserve(packedBytes());
    auto row = [&](size_t i) { return fixed_[i].data(); };
    auto gather = [&](size_t off, size_t len) {
        for (size_t i = 0; i < n; i++)
            payload.insert(payload.end(), row(i) + off,
                           row(i) + off + len);
    };
    gather(off_pc, 4);
    gather(off_op, 1);
    gather(off_cls, 1);
    gather(off_dest, 1);
    gather(off_addr_src, 1);
    gather(off_table_id, 1);
    gather(off_srcs, 3);
    gather(off_flags, 2);
    for (uint32_t v : addr32_)
        putU32(payload, v);
    for (uint64_t v : addrWide_)
        putU64(payload, v);
    for (uint32_t v : nextPcExc_)
        putU32(payload, v);
    for (uint64_t v : result_)
        putU64(payload, v);

    out.insert(out.end(), trace_magic, trace_magic + 4);
    putU32(out, trace_version);
    putU64(out, n);
    putU64(out, addr32_.size());
    putU64(out, addrWide_.size());
    putU64(out, nextPcExc_.size());
    putU64(out, result_.size());
    putU64(out, util::fnv1a64(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

PackedTrace
PackedTrace::deserialize(std::span<const uint8_t> bytes)
{
    ByteCursor cur{bytes};
    cur.need(header_bytes, "header");
    if (std::memcmp(bytes.data(), trace_magic, 4) != 0)
        throw TraceFormatError(TraceErrorKind::BadMagic,
                               "stream does not begin with 'CPTR'");
    cur.pos = 4;
    const uint32_t version = cur.u32();
    if (version != trace_version)
        throw TraceFormatError(TraceErrorKind::BadVersion,
                               "version " + std::to_string(version)
                                   + ", expected "
                                   + std::to_string(trace_version));
    const uint64_t n = cur.u64();
    const uint64_t nAddr32 = cur.u64();
    const uint64_t nAddrWide = cur.u64();
    const uint64_t nNextPc = cur.u64();
    const uint64_t nResult = cur.u64();
    const uint64_t checksum = cur.u64();

    // Counts are attacker/corruption-controlled: bound them by the
    // actual stream length before sizing anything from them.
    const uint64_t fixed_bytes_per_inst = 4 + 1 + 1 + 1 + 1 + 1 + 3 + 2;
    if (n > bytes.size() / fixed_bytes_per_inst
        || nAddr32 > bytes.size() / 4 || nAddrWide > bytes.size() / 8
        || nNextPc > bytes.size() / 4 || nResult > bytes.size() / 8)
        throw TraceFormatError(TraceErrorKind::Truncated,
                               "header counts exceed stream length");
    const uint64_t payload_bytes = n * fixed_bytes_per_inst
        + nAddr32 * 4 + nAddrWide * 8 + nNextPc * 4 + nResult * 8;
    if (cur.remaining() != payload_bytes)
        throw TraceFormatError(
            TraceErrorKind::Truncated,
            "payload is " + std::to_string(cur.remaining())
                + " bytes, header promises "
                + std::to_string(payload_bytes));
    if (util::fnv1a64(bytes.data() + header_bytes, payload_bytes)
        != checksum)
        throw TraceFormatError(TraceErrorKind::BadChecksum,
                               "payload checksum mismatch");

    PackedTrace t;
    t.fixed_.resize(n);
    auto scatter = [&](size_t off, size_t len) {
        for (uint64_t i = 0; i < n; i++)
            std::memcpy(t.fixed_[i].data() + off,
                        bytes.data() + cur.pos + i * len, len);
        cur.pos += n * len;
    };
    scatter(off_pc, 4);
    scatter(off_op, 1);
    scatter(off_cls, 1);
    scatter(off_dest, 1);
    scatter(off_addr_src, 1);
    scatter(off_table_id, 1);
    scatter(off_srcs, 3);
    scatter(off_flags, 2);
    t.addr32_.resize(nAddr32);
    for (uint64_t i = 0; i < nAddr32; i++)
        t.addr32_[i] = cur.u32();
    t.addrWide_.resize(nAddrWide);
    for (uint64_t i = 0; i < nAddrWide; i++)
        t.addrWide_[i] = cur.u64();
    t.nextPcExc_.resize(nNextPc);
    for (uint64_t i = 0; i < nNextPc; i++)
        t.nextPcExc_[i] = cur.u32();
    t.result_.resize(nResult);
    for (uint64_t i = 0; i < nResult; i++)
        t.result_[i] = cur.u64();

    t.validateConsistency();
    return t;
}

void
PackedTrace::validateConsistency() const
{
    auto fail = [](size_t i, const std::string &what) {
        throw TraceFormatError(TraceErrorKind::Inconsistent,
                               "instruction " + std::to_string(i) + ": "
                                   + what);
    };
    size_t wantAddr32 = 0, wantAddrWide = 0, wantNextPc = 0,
           wantResult = 0;
    for (size_t i = 0; i < size(); i++) {
        const uint8_t *row = fixed_[i].data();
        const uint16_t flags = rowFlags(row);
        if (flags & ~((1u << 14) - 1))
            fail(i, "reserved flag bits set");
        const unsigned code = (flags >> size_code_shift) & size_code_mask;
        if (code >= sizeof(size_table))
            fail(i, "size code " + std::to_string(code));
        if (row[off_op] > static_cast<uint8_t>(Opcode::Sboxx))
            fail(i, "opcode " + std::to_string(row[off_op]));
        if (row[off_cls] >= num_op_classes)
            fail(i, "op class " + std::to_string(row[off_cls]));
        if ((flags & f_wide_addr) && !(flags & f_has_addr))
            fail(i, "wide-addr flag without has-addr");
        if (flags & f_has_addr)
            (flags & f_wide_addr) ? wantAddrWide++ : wantAddr32++;
        if (flags & f_next_pc_exc)
            wantNextPc++;
        if (flags & f_has_result)
            wantResult++;
    }
    if (wantAddr32 != addr32_.size() || wantAddrWide != addrWide_.size()
        || wantNextPc != nextPcExc_.size()
        || wantResult != result_.size())
        throw TraceFormatError(TraceErrorKind::Inconsistent,
                               "flag columns and side-table sizes "
                               "disagree");
}

void
PackedTrace::clear()
{
    fixed_.clear();
    addr32_.clear();
    addrWide_.clear();
    nextPcExc_.clear();
    result_.clear();
}

} // namespace cryptarch::isa
