/**
 * @file
 * Random static programs and random walks over them, for the
 * packed-trace tests. A walk is shaped like a run of isa::Machine: each
 * instruction's fields are fixed by its pc except the effective address
 * of a memory access and the outcome of a conditional branch, and each
 * pc is the previous instruction's nextPc. Loads, stores, SBOX lookups,
 * conditional branches, unconditional Br, Halt (nextPc 0) and every
 * access size appear.
 */

#ifndef CRYPTARCH_TESTS_DRIVER_RANDOM_PROGRAM_HH
#define CRYPTARCH_TESTS_DRIVER_RANDOM_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "isa/machine.hh"
#include "util/xorshift.hh"

namespace cryptarch::testprog
{

/** One template DynInst per pc; branches keep their target in addr. */
using RandomProgram = std::vector<isa::DynInst>;

/**
 * @p size instructions with random static fields. Br jumps forward and
 * only the last pc is a Halt (back to pc 0), so every cycle short of
 * the whole program passes a conditional branch, which leaves it half
 * the time, and no walk falls off the end.
 */
inline RandomProgram
makeRandomProgram(util::Xorshift64 &rng, uint32_t size)
{
    const uint8_t sizes[] = {1, 2, 4, 8};
    RandomProgram p(size);
    for (uint32_t pc = 0; pc < size; pc++) {
        isa::DynInst &d = p[pc];
        d.pc = pc;
        d.cls = static_cast<isa::OpClass>(
            rng.nextBelow(isa::num_op_classes));
        d.numSrcs = static_cast<uint8_t>(rng.nextBelow(4));
        for (auto &r : d.srcs)
            r = static_cast<uint8_t>(rng.nextBelow(isa::num_regs));
        d.dest = static_cast<uint8_t>(rng.nextBelow(isa::num_regs));
        d.addrSrc = static_cast<uint8_t>(rng.nextBelow(isa::num_regs));
        d.tableId = static_cast<uint8_t>(rng.nextBelow(16));
        d.aliased = rng.next() & 1;
        const uint64_t kind = pc + 1 == size ? 6 : rng.nextBelow(6);
        switch (kind) {
          case 0: // ALU
            d.op = static_cast<isa::Opcode>(
                static_cast<uint64_t>(isa::Opcode::Addq)
                + rng.nextBelow(20));
            break;
          case 1: // load
            d.op = isa::Opcode::Ldq;
            d.isLoad = true;
            d.size = sizes[rng.nextBelow(4)];
            break;
          case 2: // store
            d.op = isa::Opcode::Stl;
            d.isStore = true;
            d.size = sizes[rng.nextBelow(4)];
            break;
          case 3: // SBOX lookup
            d.op = isa::Opcode::Sbox;
            d.isLoad = true;
            d.size = 4;
            break;
          case 4: // conditional branch
            d.op = isa::Opcode::Bne;
            d.branch = true;
            d.addr = rng.nextBelow(size);
            break;
          case 5: // unconditional branch
            d.op = isa::Opcode::Br;
            d.branch = true;
            d.taken = true;
            d.addr = pc + 1 + rng.nextBelow(size - pc - 1);
            break;
          default:
            d.op = isa::Opcode::Halt;
            break;
        }
    }
    return p;
}

/**
 * A walk of @p n instructions over @p p from @p startPc: memory
 * accesses draw random addresses below 2^32 (sometimes 0), conditional
 * branches draw their outcome, and results are random (the encoding
 * drops them).
 */
inline std::vector<isa::DynInst>
randomWalk(const RandomProgram &p, util::Xorshift64 &rng, size_t n,
           uint32_t startPc = 0)
{
    std::vector<isa::DynInst> s;
    s.reserve(n);
    uint32_t pc = startPc;
    for (size_t i = 0; i < n; i++) {
        isa::DynInst d = p[pc];
        d.seq = i;
        d.result = rng.next();
        if (d.branch) {
            const uint32_t target = static_cast<uint32_t>(d.addr);
            d.addr = 0;
            if (d.op != isa::Opcode::Br)
                d.taken = rng.next() & 1;
            d.nextPc = d.taken ? target : pc + 1;
        } else if (d.op == isa::Opcode::Halt) {
            d.nextPc = 0;
        } else {
            d.nextPc = pc + 1;
        }
        if (d.isLoad || d.isStore)
            d.addr = rng.nextBelow(4) ? rng.next32() : 0;
        s.push_back(d);
        pc = d.nextPc;
    }
    return s;
}

} // namespace cryptarch::testprog

#endif // CRYPTARCH_TESTS_DRIVER_RANDOM_PROGRAM_HH
