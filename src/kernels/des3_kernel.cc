/**
 * @file
 * Triple-DES (EDE3) CBC encryption kernel in CryptISA.
 *
 * The paper's worst performer and the motivation for XBOX: 48 Feistel
 * rounds per 64-bit block plus the 64-bit initial/final permutations.
 *
 * Round structure: the E expansion is realized by two rotated copies
 * of R (Q = ROR(R,1) carries the even S-box chunks on byte-aligned
 * fields, T = ROL(R,1) the odd ones), XOR'ed with per-round key words
 * whose 6-bit subkey chunks were pre-placed on the same fields at
 * build time. Each S-box is a 256-entry replication of the combined
 * S+P table ("replicate SBox entries, thereby creating don't-care
 * bits" — paper section 5), so a chunk lookup is one byte-indexed
 * access. The interior FP/IP pairs of EDE cancel, so the kernel runs
 * IP once, 48 rounds with the middle key schedule reversed, and FP
 * once.
 *
 * Permutations: the optimized variant packs the halves and uses four
 * XBOX + three ORs per 32-bit output (7 instructions, as the paper
 * counts); the baselines use the classic five-step PERM_OP swap
 * network. The eight SP tables exceed the four SBox caches, so the
 * optimized variant uses the aliased SBOX form (D-cache path) rather
 * than thrash the single-tag sector caches.
 */

#include "crypto/des.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"
#include "util/bitops.hh"

namespace cryptarch::kernels
{

using isa::Reg;

namespace
{

/** Bit position (LSB = 0) of the single set bit of a 64-bit value. */
unsigned
bitIndex(uint64_t v)
{
    unsigned i = 0;
    while (!(v & 1)) {
        v >>= 1;
        i++;
    }
    return i;
}

/**
 * XBOX map registers for a permutation: out[i] = in[perm64[i]] over a
 * packed 64-bit value; map @p j covers output bits 8j..8j+7.
 */
std::vector<uint64_t>
xboxMaps(const std::array<unsigned, 64> &perm)
{
    std::vector<uint64_t> maps(8, 0);
    for (unsigned i = 0; i < 64; i++)
        maps[i / 8] |= static_cast<uint64_t>(perm[i] & 63)
            << (6 * (i % 8));
    return maps;
}

/** Derive IP (or FP) as an LSB-indexed 64-bit permutation by probing
 *  the validated reference implementation. */
std::array<unsigned, 64>
derivePerm(uint64_t (*f)(uint64_t))
{
    std::array<unsigned, 64> perm{};
    for (unsigned src = 0; src < 64; src++) {
        uint64_t out = f(1ull << src);
        perm[bitIndex(out)] = src;
    }
    return perm;
}

/**
 * GRP control words realizing a permutation in log2(64) = 6 steps: a
 * stable LSB-first radix partition of the bits by destination index
 * [Shi & Lee 00]. Each step's control word sends bits with a 0 digit
 * to the low end and bits with a 1 digit to the high end, matching
 * the GRP instruction's semantics.
 */
std::vector<uint64_t>
grpControls(const std::array<unsigned, 64> &perm)
{
    // dest_of[src] = output position of input bit src.
    std::array<unsigned, 64> dest_of{};
    for (unsigned out = 0; out < 64; out++)
        dest_of[perm[out]] = out;

    std::array<unsigned, 64> labels{}; // source bit at each position
    for (unsigned p = 0; p < 64; p++)
        labels[p] = p;

    std::vector<uint64_t> controls;
    for (unsigned k = 0; k < 6; k++) {
        uint64_t control = 0;
        std::vector<unsigned> lows, highs;
        for (unsigned p = 0; p < 64; p++) {
            if ((dest_of[labels[p]] >> k) & 1) {
                control |= 1ull << p;
                highs.push_back(labels[p]);
            } else {
                lows.push_back(labels[p]);
            }
        }
        controls.push_back(control);
        unsigned p = 0;
        for (unsigned s : lows)
            labels[p++] = s;
        for (unsigned s : highs)
            labels[p++] = s;
    }
    return controls;
}

/**
 * Per-round key words in the kernel's E-chunk arrangement.
 * kq: chunks 0,2,4,6 at bit offsets 26,18,10,2 (fields of Q).
 * kt: chunks 1,3,5,7 at bit offsets 24,16,8,0 (fields of T).
 * The library's packed key holds the same chunks on the fields of
 * ROR(R,3) and ROR(R,7): kq is its even word shifted left by two, kt
 * its odd word rotated left by eight.
 */
std::pair<uint32_t, uint32_t>
arrangeKey(crypto::Des::RoundKey key)
{
    return {key.even << 2, util::rotl32(key.odd, 8)};
}

} // namespace

KernelBuild
buildTripleDesKernel(KernelVariant v, std::span<const uint8_t> key,
                     std::span<const uint8_t> iv, size_t bytes,
                     KernelDirection dir)
{
    const bool dec = dir == KernelDirection::Decrypt;
    crypto::TripleDes ref;
    ref.setKey(key);

    KernelBuild b;

    // Eight replicated SP tables. Even-chunk boxes (S1,S3,S5,S7 of the
    // spec, indices 0,2,4,6) carry the chunk in the TOP six bits of
    // the index byte; odd-chunk boxes in the BOTTOM six.
    const auto &sp = crypto::Des::spBoxes();
    for (int box = 0; box < 8; box++) {
        std::vector<uint32_t> table(256);
        for (int idx = 0; idx < 256; idx++) {
            unsigned chunk = (box % 2 == 0) ? (idx >> 2) & 0x3F
                                            : idx & 0x3F;
            table[idx] = sp[box][chunk];
        }
        b.memInit.emplace_back(tableAddr(box), words32(table));
    }

    // 48 round-key pairs. Encryption is E(K1) D(K2) E(K3): stage 0
    // forward, stage 1 reversed, stage 2 forward. Decryption is the
    // EDE inverse D(K3) E(K2) D(K1): cores in reverse order, with the
    // outer key schedules reversed — the kernel code is identical.
    std::vector<uint32_t> keywords;
    for (int stage = 0; stage < 3; stage++) {
        int core_idx = dec ? 2 - stage : stage;
        bool reversed = dec ? (stage != 1) : (stage == 1);
        const auto &ks = ref.core(core_idx).roundKeys();
        for (int r = 0; r < 16; r++) {
            auto [kq, kt] = arrangeKey(reversed ? ks[15 - r] : ks[r]);
            keywords.push_back(kq);
            keywords.push_back(kt);
        }
    }
    b.memInit.emplace_back(subkey_region, words32(keywords));

    // Permutation descriptors (optimized variants): IP and FP as
    // packed 64-bit permutations, derived from the KAT-validated
    // reference. XBOX maps live at aux_region, GRP radix-partition
    // control words at aux_region + 0x100.
    auto ip_perm = derivePerm(&crypto::Des::initialPermutation);
    auto fp_perm = derivePerm(&crypto::Des::finalPermutation);
    auto maps = xboxMaps(ip_perm);
    auto fp_maps = xboxMaps(fp_perm);
    maps.insert(maps.end(), fp_maps.begin(), fp_maps.end());
    b.memInit.emplace_back(aux_region, words64(maps));
    auto controls = grpControls(ip_perm);
    auto fp_controls = grpControls(fp_perm);
    controls.insert(controls.end(), fp_controls.begin(),
                    fp_controls.end());
    b.memInit.emplace_back(aux_region + 0x100, words64(controls));

    const uint32_t iv_words[2] = {util::load32be(iv.data()),
                                  util::load32be(iv.data() + 4)};
    b.memInit.emplace_back(iv_region, words32(iv_words));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg in_ptr = rp.alloc(), out_ptr = rp.alloc(), count = rp.alloc();
    Reg kb = rp.alloc();
    Reg tbase[8];
    for (auto &r : tbase)
        r = rp.alloc();
    Reg cl = rp.alloc(), cr = rp.alloc(); // CBC chain
    Reg l = rp.alloc(), r = rp.alloc();
    Reg q = rp.alloc(), tt = rp.alloc();
    Reg u = rp.alloc(), w = rp.alloc();
    Reg acc = rp.alloc(), acc2 = rp.alloc(), t0 = rp.alloc();
    Reg s1 = rp.alloc(), s2 = rp.alloc();
    // XBOX needs 16 map registers; GRP needs 12 control registers.
    Reg maps_reg[16];
    if (v == KernelVariant::Optimized || v == KernelVariant::OptimizedGrp) {
        for (auto &mr : maps_reg)
            mr = rp.alloc();
    }
    Reg packed = rp.alloc(), part = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(bytes / 8), count);
    as.li(subkey_region, kb);
    for (int i = 0; i < 8; i++)
        as.li(static_cast<int64_t>(tableAddr(i)), tbase[i]);
    if (v == KernelVariant::Optimized) {
        Reg mb = s1;
        as.li(aux_region, mb);
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 16; i++)
            as.ldq(maps_reg[i], mb, 8 * i);
    } else if (v == KernelVariant::OptimizedGrp) {
        Reg mb = s1;
        as.li(aux_region + 0x100, mb);
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 12; i++)
            as.ldq(maps_reg[i], mb, 8 * i);
    }
    ctx.cat(OpCategory::Arithmetic);
    Reg ivb = s1;
    as.li(iv_region, ivb);
    ctx.cat(OpCategory::Memory);
    as.ldl(cl, ivb, 0);
    as.ldl(cr, ivb, 4);

    // One Feistel f application: target ^= f(src, round key pair).
    auto feistel = [&](Reg src, Reg target, int key_index) {
        ctx.rotr32i(src, 1, q, s1);
        ctx.rotl32i(src, 1, tt, s1);
        ctx.cat(OpCategory::Memory);
        as.ldl(u, kb, 8 * key_index);
        as.ldl(w, kb, 8 * key_index + 4);
        ctx.cat(OpCategory::Logic);
        as.xor_(q, u, u);
        as.xor_(tt, w, w);
        bool aliased = true; // see file header: avoid sector thrash
        // Two balanced accumulation chains (u-boxes and w-boxes) so
        // fused 2-cycle lookups don't serialize into one 8-deep chain.
        ctx.sboxLoad(0, tbase[0], u, 3, acc, s1, aliased);
        ctx.sboxLoadXor(2, tbase[2], u, 2, acc, t0, s1, aliased);
        ctx.sboxLoadXor(4, tbase[4], u, 1, acc, t0, s1, aliased);
        ctx.sboxLoadXor(6, tbase[6], u, 0, acc, t0, s1, aliased);
        ctx.sboxLoad(1, tbase[1], w, 3, acc2, s2, aliased);
        ctx.sboxLoadXor(3, tbase[3], w, 2, acc2, t0, s2, aliased);
        ctx.sboxLoadXor(5, tbase[5], w, 1, acc2, t0, s2, aliased);
        ctx.sboxLoadXor(7, tbase[7], w, 0, acc2, t0, s2, aliased);
        ctx.cat(OpCategory::Logic);
        as.xor_(acc, acc2, acc);
        as.xor_(target, acc, target);
    };

    // The five-step PERM_OP swap network (and its reverse for FP).
    // Step: t = ((a >> n) ^ b) & m; b ^= t; a ^= t << n.
    struct SwapStep
    {
        int n;
        uint32_t m;
        bool a_is_l;
    };
    const SwapStep ip_steps[5] = {
        {4, 0x0F0F0F0F, true},
        {16, 0x0000FFFF, true},
        {2, 0x33333333, false},
        {8, 0x00FF00FF, false},
        {1, 0x55555555, true},
    };
    auto permOp = [&](const SwapStep &st) {
        Reg a = st.a_is_l ? l : r;
        Reg bb = st.a_is_l ? r : l;
        ctx.cat(OpCategory::Permute);
        as.srl32(a, st.n, s1);
        as.xor_(s1, bb, s1);
        as.and_(s1, static_cast<int64_t>(st.m), s1);
        as.xor_(bb, s1, bb);
        as.sll32(s1, st.n, s1);
        as.xor_(a, s1, a);
    };

    // 64-bit permutation via XBOX: pack (l,r), produce (l,r).
    auto xboxPermute = [&](int map_base) {
        ctx.cat(OpCategory::Permute);
        as.sll(l, 32, packed);
        as.bis(packed, r, packed);
        // High half (bits 32..63) -> l.
        as.xbox(4, packed, maps_reg[map_base + 4], l);
        as.xbox(5, packed, maps_reg[map_base + 5], part);
        as.bis(l, part, l);
        as.xbox(6, packed, maps_reg[map_base + 6], part);
        as.bis(l, part, l);
        as.xbox(7, packed, maps_reg[map_base + 7], part);
        as.bis(l, part, l);
        ctx.cat(OpCategory::Permute);
        as.srl(l, 32, l);
        // Low half -> r.
        as.xbox(0, packed, maps_reg[map_base + 0], r);
        as.xbox(1, packed, maps_reg[map_base + 1], part);
        as.bis(r, part, r);
        as.xbox(2, packed, maps_reg[map_base + 2], part);
        as.bis(r, part, r);
        as.xbox(3, packed, maps_reg[map_base + 3], part);
        as.bis(r, part, r);
    };

    // 64-bit permutation via six chained GRP steps (Shi & Lee):
    // pack (l,r), radix-partition by destination index, unpack.
    auto grpPermute = [&](int ctrl_base) {
        ctx.cat(OpCategory::Permute);
        as.sll(l, 32, packed);
        as.bis(packed, r, packed);
        for (int i = 0; i < 6; i++)
            as.grp(packed, maps_reg[ctrl_base + i], packed);
        as.srl(packed, 32, l);
        as.and_(packed, 0xFFFFFFFFll, r);
    };

    as.label("block");
    ctx.cat(OpCategory::Memory);
    as.ldl(l, in_ptr, 0);
    as.ldl(r, in_ptr, 4);
    if (!dec) {
        ctx.cat(OpCategory::Logic);
        as.xor_(l, cl, l);
        as.xor_(r, cr, r);
    }

    // Initial permutation.
    if (v == KernelVariant::Optimized) {
        xboxPermute(0);
    } else if (v == KernelVariant::OptimizedGrp) {
        grpPermute(0);
    } else {
        for (const auto &st : ip_steps)
            permOp(st);
    }

    // 48 rounds; between 16-round stages the halves swap (the
    // cancelled FP/IP pair reduces to an exchange). Track the swap
    // with compile-time renaming: regs[0] is the current L.
    Reg half[2] = {l, r};
    for (int stage = 0; stage < 3; stage++) {
        if (stage > 0)
            std::swap(half[0], half[1]);
        for (int round = 0; round < 16; round += 2) {
            int ki = stage * 16 + round;
            // L ^= f(R); then R ^= f(L) (pair-unrolled renaming).
            feistel(half[1], half[0], ki);
            feistel(half[0], half[1], ki + 1);
        }
    }
    // Pre-FP value is (R48, L48): one more swap.
    std::swap(half[0], half[1]);
    // Move into the canonical l/r names if the net renaming requires.
    if (!(half[0] == l)) {
        ctx.cat(OpCategory::Arithmetic);
        as.bis(half[0], isa::reg_zero, s2);
        as.bis(half[1], isa::reg_zero, r);
        as.bis(s2, isa::reg_zero, l);
    }

    // Final permutation.
    if (v == KernelVariant::Optimized) {
        xboxPermute(8);
    } else if (v == KernelVariant::OptimizedGrp) {
        grpPermute(6);
    } else {
        for (int i = 4; i >= 0; i--)
            permOp(ip_steps[i]);
    }

    if (!dec) {
        ctx.cat(OpCategory::Memory);
        as.stl(l, out_ptr, 0);
        as.stl(r, out_ptr, 4);
        ctx.cat(OpCategory::Arithmetic);
        as.bis(l, isa::reg_zero, cl);
        as.bis(r, isa::reg_zero, cr);
    } else {
        // CBC decrypt: plaintext = D(ct) ^ chain; chain becomes the
        // ciphertext (reloaded from the input buffer).
        ctx.cat(OpCategory::Logic);
        as.xor_(l, cl, l);
        as.xor_(r, cr, r);
        ctx.cat(OpCategory::Memory);
        as.stl(l, out_ptr, 0);
        as.stl(r, out_ptr, 4);
        as.ldl(cl, in_ptr, 0);
        as.ldl(cr, in_ptr, 4);
    }

    as.addq(in_ptr, 8, in_ptr);
    as.addq(out_ptr, 8, out_ptr);
    as.subq(count, 1, count);
    ctx.cat(OpCategory::Control);
    as.bne(count, "block");
    as.halt();

    b.program = as.finalize();
    b.categories = takeCategories(ctx);
    return b;
}

} // namespace cryptarch::kernels
