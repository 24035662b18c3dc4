/**
 * @file
 * Compact encoding of a dynamic instruction stream.
 *
 * A trace replayed across a model grid is read once per timing model,
 * so replay throughput is bounded by how many bytes per instruction
 * stream through the cache hierarchy. A full DynInst is 56 bytes;
 * PackedTrace stores the same information in 14 fixed bytes per
 * instruction plus small side tables, and decodes back to DynInst on
 * the fly during replay:
 *
 *   fixed record (14 B/inst, interleaved)
 *     pc        u32   static instruction index
 *     op, cls   u8+u8
 *     dest      u8
 *     addrSrc   u8
 *     tableId   u8
 *     srcs      3xu8  source registers (always three slots)
 *     flags     u16   see flag bits below
 *
 *   The fixed fields are interleaved as one 14-byte record per
 *   instruction (offsets above, little-endian) rather than stored as
 *   separate columns: recording appends one contiguous record per
 *   instruction and replay decodes one, so both directions touch a
 *   single sequential stream instead of eight. serialize() writes the
 *   records as they are stored.
 *
 *   side tables (entries only where the common case fails)
 *     addr32    u32   effective address, when != 0 and < 2^32
 *     addrWide  u64   escape for addresses >= 2^32
 *     nextPcExc u32   successor pc, when != pc + 1 (taken branches,
 *                     the final Halt)
 *
 * flags bits: 0-1 numSrcs, 2 isLoad, 3 isStore, 4 branch, 5 taken,
 * 6 aliased, 7 hasAddr, 8 nextPc exception, 10-12 size code (decode
 * table {0,1,2,4,8}), 13 wide address; 9, 14 and 15 are reserved.
 *
 * Result values are not stored: no timing model reads them, and they
 * are the one field that would otherwise dominate the encoding.
 * Decoded instructions carry result 0; live TraceSinks still see the
 * interpreter's results.
 *
 * Sequence numbers are implicit: appended instructions must arrive
 * with seq equal to their index (the functional Machine emits them
 * that way), and decode reconstructs seq from the cursor position.
 * Side-table membership is order-dependent, so decoding is sequential
 * through a Reader cursor — exactly the access pattern replay has.
 */

#ifndef CRYPTARCH_ISA_PACKED_TRACE_HH
#define CRYPTARCH_ISA_PACKED_TRACE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/machine.hh"

namespace cryptarch::isa
{

/** What a packed-trace stream failed to validate. */
enum class TraceErrorKind : uint8_t
{
    BadMagic,     ///< stream does not start with the trace magic
    BadVersion,   ///< unknown format version
    Truncated,    ///< stream shorter than its header promises
    BadChecksum,  ///< payload checksum mismatch (bit corruption)
    Inconsistent, ///< columns/flags/side tables disagree
    Overrun,      ///< decode consumed past a side table's end
};

/** Stable short name of a trace error kind ("bad-magic", ...). */
const char *traceErrorKindName(TraceErrorKind kind);

/**
 * A packed-trace stream was rejected. Every malformed input path —
 * truncation, corruption, inconsistent side tables — raises this
 * typed error instead of undefined behavior.
 */
class TraceFormatError : public std::runtime_error
{
  public:
    TraceFormatError(TraceErrorKind kind, const std::string &detail)
        : std::runtime_error("PackedTrace ["
                             + std::string(traceErrorKindName(kind))
                             + "]: " + detail),
          kind_(kind)
    {
    }

    TraceErrorKind kind() const { return kind_; }

  private:
    TraceErrorKind kind_;
};

class PackedTrace
{
  public:
    /** Bytes of one interleaved fixed record (the 14 in "14 B/inst"). */
    static constexpr size_t row_bytes = 14;

    /**
     * Append @p inst to the stream, dropping its result (it decodes
     * as 0). @p inst.seq must equal size().
     */
    void append(const DynInst &inst);

    /** Pre-size the fixed records for @p n instructions. */
    void reserve(size_t n);

    size_t size() const { return fixed_.size(); }
    bool empty() const { return fixed_.empty(); }

    /** Total bytes held across fixed columns and side tables. */
    size_t packedBytes() const;

    void clear();

    /**
     * Serialize to a self-describing byte stream: versioned header
     * (magic, version, per-table entry counts), FNV-1a checksum over
     * the payload, then the fixed records as stored and the side
     * tables little-endian.
     */
    std::vector<uint8_t> serialize() const;

    /**
     * Parse a stream produced by serialize(). Validates the magic,
     * version, length, checksum, and that the flag columns and side
     * tables are mutually consistent (every decode is in bounds before
     * a Reader ever runs). Throws TraceFormatError on any defect.
     */
    static PackedTrace deserialize(std::span<const uint8_t> bytes);

    /**
     * Sequential decode cursor. Readers are cheap to construct and
     * independent, so a trace can be replayed concurrently.
     */
    class Reader
    {
      public:
        explicit Reader(const PackedTrace &t) : trace(&t) {}

        bool done() const { return index >= trace->size(); }

        /** Decode the next instruction; valid only when !done().
         *  Defined inline below: the decode runs once per replayed
         *  instruction and wants to fold into the replay loop rather
         *  than pay a cross-TU call returning a 56-byte DynInst.
         *  Fully bounds-checked: a side-table overrun (possible only
         *  on a hand-built inconsistent trace; deserialize() validates
         *  streams up front) throws TraceFormatError instead of
         *  reading out of bounds. */
        DynInst next();

      private:
        const PackedTrace *trace;
        size_t index = 0;
        size_t addr32Pos = 0;
        size_t addrWidePos = 0;
        size_t nextPcPos = 0;
    };

    Reader reader() const { return Reader(*this); }

  private:
    // Flag-word bit layout (see file comment).
    static constexpr uint16_t num_srcs_mask = 0x0003;
    static constexpr uint16_t f_load = 1u << 2;
    static constexpr uint16_t f_store = 1u << 3;
    static constexpr uint16_t f_branch = 1u << 4;
    static constexpr uint16_t f_taken = 1u << 5;
    static constexpr uint16_t f_aliased = 1u << 6;
    static constexpr uint16_t f_has_addr = 1u << 7;
    static constexpr uint16_t f_next_pc_exc = 1u << 8;
    static constexpr unsigned size_code_shift = 10;
    static constexpr uint16_t size_code_mask = 0x7;
    static constexpr uint16_t f_wide_addr = 1u << 13;
    static constexpr uint16_t reserved_flags = 0xC000 | 1u << 9;

    /** Access sizes the ISA produces, indexed by size code. */
    static constexpr uint8_t size_table[5] = {0, 1, 2, 4, 8};

    static uint16_t sizeCode(uint8_t size);

    /** Raise TraceFormatError unless flags and side tables agree. */
    void validateConsistency() const;

    [[noreturn]] static void overrun(const char *table, size_t index);

    /** Record field offsets within a 14-byte fixed record. */
    static constexpr size_t off_pc = 0;
    static constexpr size_t off_op = 4;
    static constexpr size_t off_cls = 5;
    static constexpr size_t off_dest = 6;
    static constexpr size_t off_addr_src = 7;
    static constexpr size_t off_table_id = 8;
    static constexpr size_t off_srcs = 9;
    static constexpr size_t off_flags = 12;

    static uint32_t
    rowPc(const uint8_t *row)
    {
        return static_cast<uint32_t>(row[off_pc])
            | static_cast<uint32_t>(row[off_pc + 1]) << 8
            | static_cast<uint32_t>(row[off_pc + 2]) << 16
            | static_cast<uint32_t>(row[off_pc + 3]) << 24;
    }

    static uint16_t
    rowFlags(const uint8_t *row)
    {
        return static_cast<uint16_t>(
            row[off_flags] | row[off_flags + 1] << 8);
    }

    /**
     * One row_bytes-sized record per instruction. std::array keeps the
     * element trivially copyable with size == alignment == 1 packing,
     * so push_back is one capacity check plus a 14-byte copy — this is
     * the recording hot path.
     */
    std::vector<std::array<uint8_t, row_bytes>> fixed_;

    std::vector<uint32_t> addr32_;
    std::vector<uint64_t> addrWide_;
    std::vector<uint32_t> nextPcExc_;
};

inline DynInst
PackedTrace::Reader::next()
{
    const PackedTrace &t = *trace;
    const size_t i = index;
    const uint8_t *row = t.fixed_[i].data();
    const uint16_t flags = rowFlags(row);

    DynInst d;
    d.seq = i;
    d.pc = rowPc(row);
    d.op = static_cast<Opcode>(row[off_op]);
    d.cls = static_cast<OpClass>(row[off_cls]);
    d.numSrcs = flags & num_srcs_mask;
    d.srcs = {row[off_srcs], row[off_srcs + 1], row[off_srcs + 2]};
    d.dest = row[off_dest];
    d.isLoad = flags & f_load;
    d.isStore = flags & f_store;
    d.size = size_table[(flags >> size_code_shift) & size_code_mask];
    d.addrSrc = row[off_addr_src];
    d.branch = flags & f_branch;
    d.taken = flags & f_taken;
    d.tableId = row[off_table_id];
    d.aliased = flags & f_aliased;

    if (flags & f_has_addr) {
        if (flags & f_wide_addr) {
            if (addrWidePos >= t.addrWide_.size())
                overrun("addrWide", i);
            d.addr = t.addrWide_[addrWidePos++];
        } else {
            if (addr32Pos >= t.addr32_.size())
                overrun("addr32", i);
            d.addr = t.addr32_[addr32Pos++];
        }
    }
    if (flags & f_next_pc_exc) {
        if (nextPcPos >= t.nextPcExc_.size())
            overrun("nextPcExc", i);
        d.nextPc = t.nextPcExc_[nextPcPos++];
    } else {
        d.nextPc = d.pc + 1;
    }

    ++index;
    return d;
}

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_PACKED_TRACE_HH
