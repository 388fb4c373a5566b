#include "kernels/kops_dct.hh"

#include <cmath>

#include "common/saturate.hh"
#include "kernels/kops_util.hh"

namespace vmmx::kops
{

namespace
{

constexpr unsigned Q = 14;
constexpr s64 ROUND = s64(1) << (Q - 1);

/** M for a pass: idct uses CQ, fdct uses CQ^T. */
s16
passCoef(bool forward, unsigned k, unsigned i)
{
    return forward ? dctCoef(i, k) : dctCoef(k, i);
}

s16
round14(s64 sum)
{
    return clampTo<s16>(asr64(sum + ROUND, Q));
}

/** Golden pass: out = round14(M^T a), 8x8 s16 row-major arrays. */
void
goldenPass(const s16 *a, s16 *out, bool forward)
{
    for (unsigned i = 0; i < 8; ++i) {
        for (unsigned j = 0; j < 8; ++j) {
            s64 sum = 0;
            for (unsigned k = 0; k < 8; ++k)
                sum += s64(passCoef(forward, k, i)) * a[k * 8 + j];
            out[i * 8 + j] = round14(sum);
        }
    }
}

void
transpose8(const s16 *a, s16 *out)
{
    for (unsigned i = 0; i < 8; ++i)
        for (unsigned j = 0; j < 8; ++j)
            out[i * 8 + j] = a[j * 8 + i];
}

} // namespace

s16
dctCoef(unsigned i, unsigned j)
{
    double s = i == 0 ? std::sqrt(1.0 / 8.0) : 0.5;
    double v = s * std::cos((2.0 * j + 1.0) * i * M_PI / 16.0);
    return s16(std::lround(v * (1 << Q)));
}

void
goldenDct8x8(MemImage &mem, Addr in, Addr out, bool forward)
{
    s16 x[64], p1[64], p1t[64], p2[64], y[64];
    for (unsigned k = 0; k < 64; ++k)
        x[k] = s16(mem.read16(in + 2 * k));
    goldenPass(x, p1, forward);
    transpose8(p1, p1t);
    goldenPass(p1t, p2, forward);
    transpose8(p2, y);
    for (unsigned k = 0; k < 64; ++k)
        mem.write16(out + 2 * k, u16(y[k]));
}

DctTables
prepareDctTables(Program &p)
{
    DctTables t;
    for (unsigned fwd = 0; fwd < 2; ++fwd) {
        // pmaddwd pair patterns: entry (i, t) = [M[2t][i], M[2t+1][i]]
        // repeated four times (16 bytes; the 64-bit flavour reads the
        // first two repeats).
        std::vector<s16> pairs(8 * 4 * 8, 0);
        for (unsigned i = 0; i < 8; ++i) {
            for (unsigned tpair = 0; tpair < 4; ++tpair) {
                s16 c0 = passCoef(fwd != 0, 2 * tpair, i);
                s16 c1 = passCoef(fwd != 0, 2 * tpair + 1, i);
                for (unsigned rep = 0; rep < 4; ++rep) {
                    pairs[(i * 4 + tpair) * 8 + 2 * rep] = c0;
                    pairs[(i * 4 + tpair) * 8 + 2 * rep + 1] = c1;
                }
            }
        }
        t.pairTable[fwd] =
            stash(p, pairs.data(), pairs.size() * sizeof(s16));

        // Matrix splat tables: table i row k = splat(M[k][i]).
        std::vector<s16> splats(8 * 8 * 8, 0);
        for (unsigned i = 0; i < 8; ++i)
            for (unsigned k = 0; k < 8; ++k)
                for (unsigned lane = 0; lane < 8; ++lane)
                    splats[(i * 8 + k) * 8 + lane] =
                        passCoef(fwd != 0, k, i);
        t.splatTable[fwd] =
            stash(p, splats.data(), splats.size() * sizeof(s16));
    }
    t.scratch = p.mem().alloc(512, 16);
    return t;
}

void
dctScalar(Program &p, const DctTables &t, SReg in, SReg out, bool forward)
{
    auto f = p.mark();
    SReg srcp = p.sreg();
    SReg dstp = p.sreg();
    SReg sum = p.sreg();
    SReg v = p.sreg();
    SReg a = p.sreg();

    // Two passes; the intermediate P1 is stored transposed so both
    // passes read their source row-major.
    for (unsigned pass = 0; pass < 2; ++pass) {
        if (pass == 0) {
            p.mov(srcp, in);
            p.li(dstp, t.scratch);
        } else {
            p.li(srcp, t.scratch);
            p.mov(dstp, out);
        }
        p.forLoop(8, [&](SReg i) {
            p.forLoop(8, [&](SReg j) {
                p.li(sum, u64(ROUND));
                for (unsigned k = 0; k < 8; ++k) {
                    // a = src[k][j]
                    p.slli(a, j, 1);
                    p.add(a, a, srcp);
                    p.load(v, a, s64(16 * k), 2, true);
                    // sum += coef * a  (coefficient folded as an
                    // immediate multiply; it depends on the dynamic i,
                    // so the traced code mirrors a coefficient-array
                    // walk with constant strides)
                    s64 coef = s64(passCoef(forward, k, unsigned(p.val(i))));
                    p.muli(v, v, coef);
                    p.add(sum, sum, v);
                }
                p.srai(sum, sum, Q);
                // dst[j][i] = sum  (transposed store)
                p.slli(a, j, 4);
                p.add(a, a, dstp);
                p.slli(v, i, 1);
                p.add(a, a, v);
                p.store(sum, a, 0, 2);
            });
        });
    }
    p.release(f);
}

void
dctMmx(Program &p, Mmx &m, const DctTables &t, SReg in, SReg out,
       bool forward)
{
    auto f = p.mark();
    unsigned w = m.width();
    Addr pairBase = t.pairTable[forward ? 1 : 0];

    VR z = p.vreg();
    VR bias = p.vreg();
    m.pzero(z);
    msplat32(p, m, bias, s32(ROUND));

    VR i0 = p.vreg();
    VR i1 = p.vreg();
    VR k = p.vreg();
    VR acc = p.vreg();
    VR acc2 = p.vreg();
    VR r0 = p.vreg();
    VR r1 = p.vreg();
    SReg srcp = p.sreg();
    SReg dstp = p.sreg();
    SReg tab = p.sreg();
    SReg addr = p.sreg();
    p.li(tab, pairBase);

    // One pass: dst[i][:] = round14(M^T src[:][:]); both mem->mem.
    // Columns are processed in w/4-wide groups (2 for MMX64, 4 for
    // MMX128): the row pair (2t, 2t+1) is interleaved so pmaddwd forms
    // coefficient-pair partial sums per column.
    auto passOnce = [&](SReg sp, SReg dp) {
        unsigned colGroups = 16 / w; // 2 for mmx64, 1 for mmx128
        for (unsigned g = 0; g < colGroups; ++g) {
            s64 colOff = s64(g * w);
            // Interleave the four row pairs for this column group.
            // Held in i0/i1 alternately per pair; we re-load per output
            // row group instead of keeping all pairs live: the classic
            // register-poor MMX spill pattern.
            for (unsigned i = 0; i < 8; ++i) {
                bool first = true;
                for (unsigned tpair = 0; tpair < 4; ++tpair) {
                    m.load(r0, sp, s64(16 * (2 * tpair)) + colOff);
                    m.load(r1, sp, s64(16 * (2 * tpair + 1)) + colOff);
                    m.unpckl(i0, r0, r1, ElemWidth::W16);
                    m.unpckh(i1, r0, r1, ElemWidth::W16);
                    p.li(addr, pairBase + (i * 4 + tpair) * 16);
                    m.load(k, addr, 0);
                    m.pmadd(i0, i0, k);
                    m.pmadd(i1, i1, k);
                    if (first) {
                        m.por(acc, i0, i0);
                        m.por(acc2, i1, i1);
                        first = false;
                    } else {
                        m.padd(acc, acc, i0, ElemWidth::D32);
                        m.padd(acc2, acc2, i1, ElemWidth::D32);
                    }
                }
                m.padd(acc, acc, bias, ElemWidth::D32);
                m.padd(acc2, acc2, bias, ElemWidth::D32);
                m.psrai(acc, acc, Q, ElemWidth::D32);
                m.psrai(acc2, acc2, Q, ElemWidth::D32);
                m.packs(acc, acc, acc2, ElemWidth::D32);
                m.store(acc, dp, s64(16 * i) + colOff);
            }
        }
    };

    // In-register transpose of an 8x8 s16 matrix held in memory.
    // @p mid is an intermediate buffer for the 128-bit three-level
    // network (must differ from sp and dp).
    auto transposeMem = [&](SReg sp, SReg mid, SReg dp) {
        if (w == 16) {
            VR a0 = i0, a1 = i1, t0 = r0, t1 = r1;
            // Three unpack levels over rows 0..7, four rows at a time
            // (two independent quads), spilling between levels.
            // Level 1+2 for quads (0..3) and (4..7), level 3 combines.
            for (unsigned q = 0; q < 2; ++q) {
                s64 base = s64(64 * q);
                m.load(t0, sp, base + 0);
                m.load(t1, sp, base + 16);
                m.unpckl(a0, t0, t1, ElemWidth::W16);
                m.unpckh(a1, t0, t1, ElemWidth::W16);
                m.load(t0, sp, base + 32);
                m.load(t1, sp, base + 48);
                m.unpckl(acc, t0, t1, ElemWidth::W16);
                m.unpckh(acc2, t0, t1, ElemWidth::W16);
                m.unpckl(t0, a0, acc, ElemWidth::D32);
                m.unpckh(t1, a0, acc, ElemWidth::D32);
                m.store(t0, mid, base + 0);  // holds cols 0,1 partials
                m.store(t1, mid, base + 16); // cols 2,3
                m.unpckl(t0, a1, acc2, ElemWidth::D32);
                m.unpckh(t1, a1, acc2, ElemWidth::D32);
                m.store(t0, mid, base + 32); // cols 4,5
                m.store(t1, mid, base + 48); // cols 6,7
            }
            // Level 3: combine quad halves into final rows.
            for (unsigned r = 0; r < 4; ++r) {
                m.load(t0, mid, s64(16 * r));
                m.load(t1, mid, s64(64 + 16 * r));
                m.unpckl(a0, t0, t1, ElemWidth::Q64);
                m.unpckh(a1, t0, t1, ElemWidth::Q64);
                m.store(a0, dp, s64(32 * r));
                m.store(a1, dp, s64(32 * r + 16));
            }
        } else {
            // 64-bit flavour: four 4x4 blocks with a swap of the
            // off-diagonal blocks.
            for (unsigned br = 0; br < 2; ++br) {
                for (unsigned bc = 0; bc < 2; ++bc) {
                    s64 sbase = s64(64 * br + 8 * bc);
                    s64 dbase = s64(64 * bc + 8 * br);
                    m.load(r0, sp, sbase + 0);
                    m.load(r1, sp, sbase + 16);
                    m.unpckl(i0, r0, r1, ElemWidth::W16);
                    m.unpckh(i1, r0, r1, ElemWidth::W16);
                    m.load(r0, sp, sbase + 32);
                    m.load(r1, sp, sbase + 48);
                    m.unpckl(acc, r0, r1, ElemWidth::W16);
                    m.unpckh(acc2, r0, r1, ElemWidth::W16);
                    m.unpckl(r0, i0, acc, ElemWidth::D32);
                    m.unpckh(r1, i0, acc, ElemWidth::D32);
                    m.store(r0, dp, dbase + 0);
                    m.store(r1, dp, dbase + 16);
                    m.unpckl(r0, i1, acc2, ElemWidth::D32);
                    m.unpckh(r1, i1, acc2, ElemWidth::D32);
                    m.store(r0, dp, dbase + 32);
                    m.store(r1, dp, dbase + 48);
                }
            }
        }
    };

    SReg scr1 = p.sreg();
    SReg scr2 = p.sreg();
    SReg scr3 = p.sreg();
    p.li(scr1, t.scratch);
    p.li(scr2, t.scratch + 128);
    p.li(scr3, t.scratch + 256);

    p.mov(srcp, in);
    passOnce(srcp, scr1);            // P1 = pass(X)
    transposeMem(scr1, scr3, scr2);  // P1^T
    passOnce(scr2, scr1);            // P2 = pass(P1^T)
    p.mov(dstp, out);
    transposeMem(scr1, scr3, dstp);  // out = P2^T
    p.release(f);
}

VmmxDctCtx
dctVmmxLoadTables(Program &p, Vmmx &v, const DctTables &t, bool forward)
{
    VmmxDctCtx ctx;
    Addr splatBase = t.splatTable[forward ? 1 : 0];
    auto f = p.mark();
    SReg tab = p.sreg();
    SReg st16 = p.sreg();
    p.li(st16, 16);
    v.setvl(8);
    for (unsigned i = 0; i < 8; ++i) {
        ctx.tbl[i] = p.vreg();
        p.li(tab, splatBase + i * 8 * 16);
        if (v.width() == 16) {
            v.loadU(ctx.tbl[i], tab, 0);
        } else {
            // Splat rows are 16 bytes apart in the shared table; the
            // strided load picks the low 8 bytes of each.
            v.load(ctx.tbl[i], tab, 0, st16);
        }
    }
    // Release only the scalar temporaries; the table registers persist.
    f.simdMark = p.mark().simdMark;
    p.release(f);
    return ctx;
}

void
dctVmmxBlock(Program &p, Vmmx &v, const DctTables &t, const VmmxDctCtx &ctx,
             SReg in, SReg out)
{
    auto f = p.mark();
    unsigned w = v.width();
    SReg scr = p.sreg();
    SReg st8 = p.sreg();
    p.li(scr, t.scratch);
    p.li(st8, 8);
    const auto &tbl = ctx.tbl;

    if (w == 16) {
        // Whole block and all eight splat matrices stay in registers
        // across both passes (registers-as-cache).
        v.setvl(8);
        VR x = p.vreg();
        VR pr = p.vreg();
        AR acc = p.areg();
        v.loadU(x, in, 0);
        for (unsigned pass = 0; pass < 2; ++pass) {
            for (unsigned i = 0; i < 8; ++i) {
                v.accclr(acc);
                v.vmacc(acc, tbl[i], x);
                v.accpack(pr, i, acc, Q);
            }
            v.vtransp(x, pr);
        }
        v.storeU(x, out, 0);
    } else {
        // 64-bit rows: the block splits into left/right 8x4 halves; the
        // 8x8 transpose goes through scratch with 4x4 lane transposes.
        v.setvl(8);
        VR xl = p.vreg();
        VR xr = p.vreg();
        VR pl = p.vreg();
        VR pr = p.vreg();
        VR t1 = p.vreg();
        AR acc = p.areg();
        SReg st16b = p.sreg();
        p.li(st16b, 16);
        v.load(xl, in, 0, st16b);
        v.load(xr, in, 8, st16b);
        for (unsigned pass = 0; pass < 2; ++pass) {
            for (unsigned i = 0; i < 8; ++i) {
                v.accclr(acc);
                v.vmacc(acc, tbl[i], xl);
                v.accpack(pl, i, acc, Q);
                v.accclr(acc);
                v.vmacc(acc, tbl[i], xr);
                v.accpack(pr, i, acc, Q);
            }
            // Transpose [pl | pr] into [xl | xr] via 4x4 blocks.
            v.setvl(4);
            // Top blocks.
            v.vtransp(t1, pl);
            v.storePartial(t1, 0, 4, scr, 0, st8);
            v.vtransp(t1, pr);
            v.storePartial(t1, 0, 4, scr, 32, st8);
            // Bottom blocks: bring rows 4..7 to the top rows first.
            v.storePartial(pl, 4, 4, scr, 64, st8);
            v.loadPartial(t1, 0, 4, scr, 64, st8);
            v.vtransp(t1, t1);
            v.storePartial(t1, 0, 4, scr, 64, st8);
            v.storePartial(pr, 4, 4, scr, 96, st8);
            v.loadPartial(t1, 0, 4, scr, 96, st8);
            v.vtransp(t1, t1);
            v.storePartial(t1, 0, 4, scr, 96, st8);
            v.setvl(8);
            // xl = [A^T ; B^T], xr = [C^T ; D^T].
            v.loadPartial(xl, 0, 4, scr, 0, st8);
            v.loadPartial(xl, 4, 4, scr, 32, st8);
            v.loadPartial(xr, 0, 4, scr, 64, st8);
            v.loadPartial(xr, 4, 4, scr, 96, st8);
        }
        v.store(xl, out, 0, st16b);
        v.store(xr, out, 8, st16b);
    }
    p.release(f);
}

} // namespace vmmx::kops
