/**
 * @file
 * Program-shaped encoding of a dynamic instruction stream.
 *
 * Almost everything a DynInst carries is fixed by the instruction at
 * its pc: opcode, class, registers, access size, table id, the aliased
 * flag, and where control goes next. Only two facts vary from one
 * execution of a pc to the next: the effective address of a memory or
 * SBOX access, and the outcome of a conditional branch. PackedTrace
 * therefore stores
 *
 *   static table   one StaticInst per pc (indexed by pc, filled on
 *                  the first visit): the static DynInst fields plus
 *                  the successor rule, a fall-through pc and a target
 *                  for taken branches
 *   address column one u32 per instruction that loads or stores
 *                  (SBOX lookups included)
 *   branch bits    one bit per conditional branch (every branch but
 *                  Br), 1 = taken
 *
 * and replays by walking pc = nextPc from the first instruction's pc
 * for size() instructions, rebuilding each DynInst from its table entry
 * and attaching the next address and taken bit where the entry calls
 * for them. The 80 catalog kernels at 4 KB take 0.46-3.04 B/inst, 1.3
 * over all of them (a DynInst is 56).
 *
 * Result values are not stored: no timing model reads them. Decoded
 * instructions carry result 0; live TraceSinks still see the
 * interpreter's results. Sequence numbers are implicit: decode numbers
 * the stream by position.
 *
 * The encoding holds only for streams shaped like a program run, so
 * append() enforces that shape and throws
 * TraceFormatError{Inconsistent}, naming the instruction index, when
 *   - seq != size();
 *   - pc is not the previous instruction's nextPc;
 *   - a static field, or the successor taken on this outcome, differs
 *     from an earlier visit to the same pc;
 *   - a memory instruction's address is 2^32 or more, or a
 *     non-memory instruction carries an address;
 *   - a field is out of range (opcode, class, register number,
 *     numSrcs > 3) or a pc is beyond max_static_pcs.
 * isa::Machine, the only producer, satisfies all of these: its memory
 * is 4 MB, and neither traps nor injected faults change the program.
 */

#ifndef CRYPTARCH_ISA_PACKED_TRACE_HH
#define CRYPTARCH_ISA_PACKED_TRACE_HH

#include <array>
#include <cstdint>
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
    BadChecksum,  ///< header or payload checksum mismatch
    Inconsistent, ///< a table entry or the pc walk is malformed
    Overrun,      ///< the pc walk ran past a column's end
};

/** Stable short name of a trace error kind ("bad-magic", ...). */
const char *traceErrorKindName(TraceErrorKind kind);

/**
 * A packed-trace stream was rejected. Every malformed input path —
 * truncation, corruption, a stream no program run could produce —
 * raises this typed error instead of undefined behavior.
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
    /** Largest static table (pcs 0 .. max_static_pcs - 1) accepted. */
    static constexpr uint32_t max_static_pcs = 1u << 20;

    /**
     * Append @p inst to the stream, dropping its result (it decodes
     * as 0). Throws TraceFormatError{Inconsistent} and leaves the
     * trace unchanged when @p inst breaks the contract in the file
     * comment.
     */
    void append(const DynInst &inst);

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Bytes held by the static table, address column and bits. */
    size_t packedBytes() const;

    /** The static table's share of packedBytes(): a cost per program
     *  instruction, independent of how long the run is. */
    size_t staticBytes() const { return table_.size() * sizeof(StaticInst); }

    void clear();

    /**
     * Serialize to a self-describing byte stream (format version 3):
     * a 48-byte header (magic, version, counts, start pc, FNV-1a
     * checksum over the rest of the header and the payload), then the
     * static table, the address column and the branch bits,
     * little-endian.
     */
    std::vector<uint8_t> serialize() const;

    /**
     * Parse a stream produced by serialize(). Checks the magic,
     * version, length and checksum, validates every table entry
     * (opcode and class range, register numbers, numSrcs, successors
     * inside the table), then walks the pc chain once: every visited
     * pc must be a table entry, and the walk must use the address
     * column and the branch bits up exactly. Throws TraceFormatError
     * on any defect, so a Reader never meets a malformed trace.
     */
    static PackedTrace deserialize(std::span<const uint8_t> bytes);

    /**
     * Sequential decode cursor. Readers are cheap to construct and
     * independent, so a trace can be replayed concurrently.
     */
    class Reader
    {
      public:
        explicit Reader(const PackedTrace &t) : trace(&t), pc(t.startPc_)
        {
        }

        bool done() const { return index >= trace->count_; }

        /** Decode the next instruction; valid only when !done().
         *  Defined inline below: the decode runs once per replayed
         *  instruction and wants to fold into the replay loop rather
         *  than pay a cross-TU call returning a 56-byte DynInst. It
         *  needs no bounds checks: append() and deserialize() admit
         *  only traces whose walk stays inside every column. */
        DynInst next();

      private:
        const PackedTrace *trace;
        uint64_t index = 0;
        uint32_t pc;
        size_t addrPos = 0;
        size_t bitPos = 0;
    };

    Reader reader() const { return Reader(*this); }

  private:
    /** Successor not yet observed. */
    static constexpr uint32_t no_pc = 0xFFFFFFFF;

    // StaticInst::flags bits (also their serialized form); bits 0-1
    // hold numSrcs.
    static constexpr uint8_t f_num_srcs = 0x03;
    static constexpr uint8_t f_load = 1u << 2;
    static constexpr uint8_t f_store = 1u << 3;
    static constexpr uint8_t f_branch = 1u << 4;
    static constexpr uint8_t f_taken = 1u << 5; ///< unless conditional
    static constexpr uint8_t f_aliased = 1u << 6;
    static constexpr uint8_t f_present = 1u << 7; ///< pc was visited

    /** The static part of every execution of one pc (20 bytes). */
    struct StaticInst
    {
        uint32_t fallthrough = no_pc; ///< successor when not taken
        uint32_t target = no_pc;      ///< successor when taken
        Opcode op = Opcode::Halt;
        OpClass cls = OpClass::Nop;
        std::array<uint8_t, 3> srcs{};
        uint8_t dest = 0;
        uint8_t size = 0;
        uint8_t addrSrc = 0;
        uint8_t tableId = 0;
        uint8_t flags = 0;
        /** Derived from op and flags: taken comes from the branch bits
         *  (every branch but Br). Not serialized. */
        bool conditional = false;
    };

    static uint8_t flagsOf(const DynInst &inst);
    static StaticInst staticOf(const DynInst &inst);
    /** @p inst repeats every field of @p e but the successors. */
    static bool sameStatic(const StaticInst &e, const DynInst &inst);
    /** append() for everything but a plain revisit: full checks with
     *  messages, table growth, first visits. */
    void appendChecked(const DynInst &inst);
    /** Store @p inst's address and taken bit, and advance. */
    void record(const StaticInst &e, const DynInst &inst);
    /** Why @p e cannot be stored, or nullptr. */
    static const char *invalidStatic(const StaticInst &e);

    bool
    bit(size_t i) const
    {
        return (bits_[i / 64] >> (i % 64)) & 1;
    }

    std::vector<StaticInst> table_;
    std::vector<uint32_t> addrs_;
    std::vector<uint64_t> bits_;
    size_t nBits_ = 0;
    uint64_t count_ = 0;
    uint32_t startPc_ = 0;
    uint32_t nextPc_ = 0; ///< successor of the last appended instruction
};

inline DynInst
PackedTrace::Reader::next()
{
    const PackedTrace &t = *trace;
    const StaticInst &e = t.table_[pc];

    DynInst d;
    d.seq = index++;
    d.pc = pc;
    d.op = e.op;
    d.cls = e.cls;
    d.numSrcs = e.flags & f_num_srcs;
    d.srcs = e.srcs;
    d.dest = e.dest;
    d.isLoad = e.flags & f_load;
    d.isStore = e.flags & f_store;
    d.size = e.size;
    d.addrSrc = e.addrSrc;
    d.branch = e.flags & f_branch;
    d.tableId = e.tableId;
    d.aliased = e.flags & f_aliased;
    if (e.flags & (f_load | f_store))
        d.addr = t.addrs_[addrPos++];
    d.taken = e.conditional ? t.bit(bitPos++) : (e.flags & f_taken) != 0;
    d.nextPc = d.taken ? e.target : e.fallthrough;
    pc = d.nextPc;
    return d;
}

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_PACKED_TRACE_HH
