#include "isa/packed_trace.hh"

#include <algorithm>
#include <cstring>

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
PackedTrace::append(const DynInst &inst)
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
        + nextPcExc_.size() * sizeof(uint32_t);
}

namespace
{

/** Serialized-stream layout constants. */
constexpr uint8_t trace_magic[4] = {'C', 'P', 'T', 'R'};
constexpr uint32_t trace_version = 2;
constexpr size_t header_bytes = 48;

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
    static_assert(sizeof(fixed_[0]) == row_bytes);
    const size_t rowsBytes = size() * row_bytes;
    std::vector<uint8_t> tables;
    for (uint32_t v : addr32_)
        util::putU32(tables, v);
    for (uint64_t v : addrWide_)
        util::putU64(tables, v);
    for (uint32_t v : nextPcExc_)
        util::putU32(tables, v);
    const uint64_t checksum = util::fnv1a64(
        tables.data(), tables.size(),
        util::fnv1a64(fixed_.data(), rowsBytes));

    std::vector<uint8_t> out;
    out.reserve(header_bytes + rowsBytes + tables.size());
    out.insert(out.end(), trace_magic, trace_magic + 4);
    util::putU32(out, trace_version);
    util::putU64(out, size());
    util::putU64(out, addr32_.size());
    util::putU64(out, addrWide_.size());
    util::putU64(out, nextPcExc_.size());
    util::putU64(out, checksum);
    const auto *rows = reinterpret_cast<const uint8_t *>(fixed_.data());
    out.insert(out.end(), rows, rows + rowsBytes);
    out.insert(out.end(), tables.begin(), tables.end());
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
    const uint64_t nAddr32 = in.u64("header");
    const uint64_t nAddrWide = in.u64("header");
    const uint64_t nNextPc = in.u64("header");
    const uint64_t checksum = in.u64("header");

    // Counts are attacker/corruption-controlled: bound them by the
    // actual stream length before sizing anything from them.
    if (n > bytes.size() / row_bytes || nAddr32 > bytes.size() / 4
        || nAddrWide > bytes.size() / 8 || nNextPc > bytes.size() / 4)
        throw TraceFormatError(TraceErrorKind::Truncated,
                               "header counts exceed stream length");
    const uint64_t payload_bytes =
        n * row_bytes + nAddr32 * 4 + nAddrWide * 8 + nNextPc * 4;
    if (in.remaining() != payload_bytes)
        throw TraceFormatError(
            TraceErrorKind::Truncated,
            "payload is " + std::to_string(in.remaining())
                + " bytes, header promises "
                + std::to_string(payload_bytes));
    if (util::fnv1a64(bytes.data() + header_bytes, payload_bytes)
        != checksum)
        throw TraceFormatError(TraceErrorKind::BadChecksum,
                               "payload checksum mismatch");

    PackedTrace t;
    t.fixed_.resize(n);
    const auto rows = in.bytes(n * row_bytes, "fixed records");
    std::copy(rows.begin(), rows.end(),
              reinterpret_cast<uint8_t *>(t.fixed_.data()));
    t.addr32_.resize(nAddr32);
    for (auto &v : t.addr32_)
        v = in.u32("addr32");
    t.addrWide_.resize(nAddrWide);
    for (auto &v : t.addrWide_)
        v = in.u64("addrWide");
    t.nextPcExc_.resize(nNextPc);
    for (auto &v : t.nextPcExc_)
        v = in.u32("nextPcExc");

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
    size_t wantAddr32 = 0, wantAddrWide = 0, wantNextPc = 0;
    for (size_t i = 0; i < size(); i++) {
        const uint8_t *row = fixed_[i].data();
        const uint16_t flags = rowFlags(row);
        if (flags & reserved_flags)
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
    }
    if (wantAddr32 != addr32_.size() || wantAddrWide != addrWide_.size()
        || wantNextPc != nextPcExc_.size())
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
}

} // namespace cryptarch::isa
