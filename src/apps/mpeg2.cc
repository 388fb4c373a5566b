#include "apps/mpeg2.hh"

#include "apps/blockcode.hh"
#include "kernels/kops_block.hh"
#include "kernels/kops_dct.hh"
#include "kernels/kops_motion.hh"

namespace vmmx
{

namespace
{

using namespace kops;
using namespace blockcode;

constexpr int kSearch = 3; // +-3 full-search window

/** Emit SAD/SQD for the active flavour. */
void
emitSad(Program &p, SReg a, SReg b, SReg lxReg, unsigned lx, SReg out,
        bool quadratic)
{
    if (p.matrix()) {
        Vmmx v(p);
        if (quadratic)
            sqdVmmx(p, v, a, b, 16, lxReg, out);
        else
            sadVmmx(p, v, a, b, 16, lxReg, out);
    } else {
        Mmx m(p);
        if (quadratic)
            sqdMmx(p, m, a, b, 16, lx, out);
        else
            sadMmx(p, m, a, b, 16, lx, out);
    }
}

/** res[8x8 s16] = cur[u8] - pred[u8] (scalar). */
void
residualBlock(Program &p, Addr cur, unsigned curPitch, Addr pred,
              unsigned predPitch, Addr blockAddr)
{
    auto f = p.mark();
    SReg sc = p.sreg();
    SReg sp = p.sreg();
    SReg dst = p.sreg();
    SReg a = p.sreg();
    SReg b = p.sreg();
    SReg t = p.sreg();
    p.li(sc, cur);
    p.li(sp, pred);
    p.li(dst, blockAddr);
    p.forLoop(8, [&](SReg) {
        p.forLoop(8, [&](SReg c) {
            p.add(t, sc, c);
            p.load(a, t, 0, 1);
            p.add(t, sp, c);
            p.load(b, t, 0, 1);
            p.sub(a, a, b);
            p.slli(t, c, 1);
            p.add(t, t, dst);
            p.store(a, t, 0, 2);
        });
        p.addi(sc, sc, curPitch);
        p.addi(sp, sp, predPitch);
        p.addi(dst, dst, 16);
    });
    p.release(f);
}

/** recon[u8] = clamp(pred[u8] + res[s16]) (scalar encoder-side). */
void
reconBlock(Program &p, Addr pred, unsigned predPitch, Addr blockAddr,
           Addr out, unsigned outPitch)
{
    auto f = p.mark();
    SReg sp = p.sreg();
    SReg sb = p.sreg();
    SReg dst = p.sreg();
    SReg a = p.sreg();
    SReg b = p.sreg();
    SReg t = p.sreg();
    SReg zero = p.sreg();
    SReg c255 = p.sreg();
    p.li(sp, pred);
    p.li(sb, blockAddr);
    p.li(dst, out);
    p.li(zero, 0);
    p.li(c255, 255);
    p.forLoop(8, [&](SReg) {
        p.forLoop(8, [&](SReg c) {
            p.add(t, sp, c);
            p.load(a, t, 0, 1);
            p.slli(t, c, 1);
            p.add(t, t, sb);
            p.load(b, t, 0, 2, true);
            p.add(a, a, b);
            if (p.brLt(a, zero))
                p.mov(a, zero);
            if (p.brLt(c255, a))
                p.mov(a, c255);
            p.add(t, dst, c);
            p.store(a, t, 0, 1);
        });
        p.addi(sp, sp, predPitch);
        p.addi(sb, sb, 16);
        p.addi(dst, dst, outPitch);
    });
    p.release(f);
}

/** Half-pel-style motion compensation into the 16x16 pred buffer via
 *  two 8-wide comp calls (vectorised). */
void
emitPrediction(Program &p, Addr refBlock, unsigned pitch, bool halfpel,
               Addr pred)
{
    VectorRegion vr(p);
    auto f = p.mark();
    SReg a = p.sreg();
    SReg b = p.sreg();
    SReg o = p.sreg();
    for (unsigned half = 0; half < 2; ++half) {
        p.li(a, refBlock + 8 * half);
        p.li(b, refBlock + 8 * half + (halfpel ? 1 : 0));
        p.li(o, pred + 8 * half);
        if (p.matrix()) {
            Vmmx v(p);
            SReg lx = p.sreg();
            SReg olx = p.sreg();
            p.li(lx, pitch);
            p.li(olx, 16);
            compVmmx(p, v, a, b, o, 8, 16, lx, olx);
        } else {
            Mmx m(p);
            compMmx(p, m, a, b, o, 8, 16, pitch, 16);
        }
    }
    p.release(f);
}

/**
 * Batched in-place transform of @p n blocks at @p arr (128 B apart).
 * For the matrix flavours the coefficient splat matrices are loaded
 * once and stay register-resident across the whole batch.
 */
void
emitDctBatch(Program &p, const DctTables &tabs, Addr arr, unsigned n,
             bool forward)
{
    VectorRegion vr(p);
    auto f = p.mark();
    SReg i = p.sreg();
    SReg o = p.sreg();
    if (p.matrix()) {
        Vmmx v(p);
        VmmxDctCtx ctx = dctVmmxLoadTables(p, v, tabs, forward);
        for (unsigned b = 0; b < n; ++b) {
            p.li(i, arr + b * 128);
            dctVmmxBlock(p, v, tabs, ctx, i, i);
        }
    } else {
        Mmx m(p);
        for (unsigned b = 0; b < n; ++b) {
            p.li(i, arr + b * 128);
            dctMmx(p, m, tabs, i, i, forward);
        }
    }
    (void)o;
    p.release(f);
}

/** addblock (vectorised): out = clamp(pred + res). */
void
emitAddblock(Program &p, Addr pred, unsigned predPitch, Addr res,
             Addr out, unsigned outPitch)
{
    VectorRegion vr(p);
    auto f = p.mark();
    SReg pr = p.sreg();
    SReg re = p.sreg();
    SReg o = p.sreg();
    p.li(pr, pred);
    p.li(re, res);
    p.li(o, out);
    if (p.matrix()) {
        Vmmx v(p);
        SReg lx = p.sreg();
        SReg olx = p.sreg();
        p.li(lx, predPitch);
        p.li(olx, outPitch);
        addblockVmmx(p, v, pr, re, o, lx, olx);
    } else {
        Mmx m(p);
        addblockMmx(p, m, pr, re, o, predPitch, outPitch);
    }
    p.release(f);
}

} // namespace

void
Mpeg2Layout::alloc(MemImage &mem)
{
    cur0 = interior(mem.alloc(kFrameBytes + 64));
    cur1 = interior(mem.alloc(kFrameBytes + 64));
    recA = interior(mem.alloc(kFrameBytes + 64));
    recB = interior(mem.alloc(kFrameBytes + 64));
    dRec0 = interior(mem.alloc(kFrameBytes + 64));
    dRec1 = interior(mem.alloc(kFrameBytes + 64));
    pred = mem.alloc(16 * 16 + 64);
    predArr = mem.alloc(kMbW * kMbH * 256 + 64);
    blockArr = mem.alloc((kW / 8) * (kH / 8) * 128 + 64);
    block = mem.alloc(256);
    block2 = mem.alloc(256);
    const128 = mem.alloc(64);
    for (unsigned i = 0; i < 16; ++i)
        mem.write8(const128 + i, 128);
    stream = mem.alloc(64 * 1024);
    streamLen = mem.alloc(8);
}

void
Mpeg2Enc::prepare(MemImage &mem, Rng &rng)
{
    lay_.alloc(mem);
    // Frame 0: smooth pattern; frame 1: the same pattern shifted by a
    // couple of pixels plus noise, so motion search has real work.
    for (unsigned y = 0; y < Mpeg2Layout::kH; ++y) {
        for (unsigned x = 0; x < Mpeg2Layout::kW; ++x) {
            u8 v = u8(3 * x + 2 * y + rng.below(6));
            mem.write8(lay_.cur0 + y * Mpeg2Layout::kPitch + x, v);
        }
    }
    for (unsigned y = 0; y < Mpeg2Layout::kH; ++y) {
        for (unsigned x = 0; x < Mpeg2Layout::kW; ++x) {
            unsigned sx = std::min(x + 2, Mpeg2Layout::kW - 1);
            unsigned sy = std::min(y + 1, Mpeg2Layout::kH - 1);
            u8 v = mem.read8(lay_.cur0 + sy * Mpeg2Layout::kPitch + sx);
            mem.write8(lay_.cur1 + y * Mpeg2Layout::kPitch + x,
                       u8(v + rng.below(4)));
        }
    }
}

void
Mpeg2Enc::emit(Program &p)
{
    const Mpeg2Layout &L = lay_;
    constexpr unsigned P = Mpeg2Layout::kPitch;
    constexpr unsigned nBlocks =
        (Mpeg2Layout::kW / 8) * (Mpeg2Layout::kH / 8);
    auto f = p.mark();
    DctTables tabs = prepareDctTables(p);
    DslBitWriter bw(p, L.stream);

    auto blockAddr = [&](unsigned idx) { return L.blockArr + idx * 128; };

    // ---- I frame (batched: extract, fdct, code, idct, deposit) ----
    {
        unsigned idx = 0;
        for (unsigned by = 0; by < Mpeg2Layout::kH / 8; ++by)
            for (unsigned bx = 0; bx < Mpeg2Layout::kW / 8; ++bx)
                extractBlock(p, L.cur0, P, bx, by, blockAddr(idx++));
    }
    emitDctBatch(p, tabs, L.blockArr, nBlocks, true);
    for (unsigned idx = 0; idx < nBlocks; ++idx) {
        codeBlock(p, bw, blockAddr(idx));
        qdqBlock(p, blockAddr(idx));
    }
    emitDctBatch(p, tabs, L.blockArr, nBlocks, false);
    {
        unsigned idx = 0;
        for (unsigned by = 0; by < Mpeg2Layout::kH / 8; ++by)
            for (unsigned bx = 0; bx < Mpeg2Layout::kW / 8; ++bx)
                depositBlock(p, blockAddr(idx++), L.recA, P, bx, by);
    }

    // ---- P frame ----
    SReg a = p.sreg();
    SReg b = p.sreg();
    SReg sad = p.sreg();
    SReg best = p.sreg();
    SReg lxReg = p.sreg();
    p.li(lxReg, P);

    struct MbInfo
    {
        int dx, dy;
        Addr predBuf;
    };
    std::vector<MbInfo> mbs;

    // Pass 1: motion estimation, MV coding, prediction, residuals.
    for (unsigned mby = 0; mby < Mpeg2Layout::kMbH; ++mby) {
        for (unsigned mbx = 0; mbx < Mpeg2Layout::kMbW; ++mbx) {
            unsigned mb = mby * Mpeg2Layout::kMbW + mbx;
            Addr curMb = L.cur1 + mby * 16 * P + mbx * 16;
            Addr refMb = L.recA + mby * 16 * P + mbx * 16;
            Addr predBuf = L.predArr + mb * 256;

            // Full search (motion1).
            int bestDx = 0, bestDy = 0;
            p.li(best, ~u64(0) >> 1);
            {
                VectorRegion vr(p);
                for (int dy = -kSearch; dy <= kSearch; ++dy) {
                    for (int dx = -kSearch; dx <= kSearch; ++dx) {
                        p.li(a, curMb);
                        p.li(b, refMb + Addr(s64(dy) * s64(P) + dx));
                        emitSad(p, a, b, lxReg, P, sad, false);
                        if (p.brLt(sad, best)) {
                            p.mov(best, sad);
                            bestDx = dx;
                            bestDy = dy;
                        }
                    }
                }
            }

            // Refinement (motion2) around the winner.
            int refDx = bestDx, refDy = bestDy;
            p.li(best, ~u64(0) >> 1);
            {
                VectorRegion vr(p);
                for (int dy = -1; dy <= 1; ++dy) {
                    for (int dx = -1; dx <= 1; ++dx) {
                        int cx = std::clamp(bestDx + dx, -2 * kSearch,
                                            2 * kSearch);
                        int cy = std::clamp(bestDy + dy, -2 * kSearch,
                                            2 * kSearch);
                        p.li(a, curMb);
                        p.li(b, refMb + Addr(s64(cy) * s64(P) + cx));
                        emitSad(p, a, b, lxReg, P, sad, true);
                        if (p.brLt(sad, best)) {
                            p.mov(best, sad);
                            refDx = cx;
                            refDy = cy;
                        }
                    }
                }
            }

            bw.putImm(u64(refDx + 8), 5);
            bw.putImm(u64(refDy + 8), 5);

            bool halfpel = ((refDx + refDy) & 1) != 0;
            Addr refBlock = refMb + Addr(s64(refDy) * s64(P) + refDx);
            emitPrediction(p, refBlock, P, halfpel, predBuf);
            mbs.push_back({refDx, refDy, predBuf});

            for (unsigned q = 0; q < 4; ++q) {
                unsigned qx = (q & 1) * 8;
                unsigned qy = (q >> 1) * 8;
                residualBlock(p, curMb + qy * P + qx, P,
                              predBuf + qy * 16 + qx, 16,
                              blockAddr(mb * 4 + q));
            }
        }
    }

    // Pass 2: batched transform; pass 3: entropy; pass 4: inverse;
    // pass 5: reconstruction.
    unsigned nP = unsigned(mbs.size()) * 4;
    emitDctBatch(p, tabs, L.blockArr, nP, true);
    for (unsigned idx = 0; idx < nP; ++idx) {
        codeBlock(p, bw, blockAddr(idx));
        qdqBlock(p, blockAddr(idx));
    }
    emitDctBatch(p, tabs, L.blockArr, nP, false);
    for (unsigned mb = 0; mb < mbs.size(); ++mb) {
        unsigned mbx = mb % Mpeg2Layout::kMbW;
        unsigned mby = mb / Mpeg2Layout::kMbW;
        for (unsigned q = 0; q < 4; ++q) {
            unsigned qx = (q & 1) * 8;
            unsigned qy = (q >> 1) * 8;
            Addr outQ = L.recB + (mby * 16 + qy) * P + mbx * 16 + qx;
            reconBlock(p, mbs[mb].predBuf + qy * 16 + qx, 16,
                       blockAddr(mb * 4 + q), outQ, P);
        }
    }
    bw.flush();

    SReg len = p.sreg();
    SReg la = p.sreg();
    p.li(len, bw.bytesWritten());
    p.li(la, L.streamLen);
    p.store(len, la, 0, 8);
    p.release(f);
}

u64
Mpeg2Enc::checksum(const MemImage &mem) const
{
    u64 n = mem.read64(lay_.streamLen);
    u64 h = 1469598103934665603ull;
    h = hashRange(mem, lay_.stream, size_t(n), h);
    for (unsigned y = 0; y < Mpeg2Layout::kH; ++y)
        h = hashRange(mem, lay_.recB + y * Mpeg2Layout::kPitch,
                      Mpeg2Layout::kW, h);
    return h ^ n;
}

void
Mpeg2Dec::prepare(MemImage &mem, Rng &rng)
{
    enc_.prepare(mem, rng);
    Program tmp(mem, SimdKind::MMX64, discardSink());
    enc_.emit(tmp);
}

void
Mpeg2Dec::emit(Program &p)
{
    const Mpeg2Layout &L = enc_.layout();
    constexpr unsigned P = Mpeg2Layout::kPitch;
    auto f = p.mark();
    DctTables tabs = prepareDctTables(p);
    DslBitReader br(p, L.stream);

    auto blockAddr = [&](unsigned idx) { return L.blockArr + idx * 128; };
    constexpr unsigned nBlocks =
        (Mpeg2Layout::kW / 8) * (Mpeg2Layout::kH / 8);

    // ---- I frame: parse all blocks, batched idct (vector), then
    // reconstruct via addblock with a constant-128 prediction row
    // (stride 0).
    for (unsigned idx = 0; idx < nBlocks; ++idx)
        parseBlock(p, br, blockAddr(idx));
    emitDctBatch(p, tabs, L.blockArr, nBlocks, false);
    {
        unsigned idx = 0;
        for (unsigned by = 0; by < Mpeg2Layout::kH / 8; ++by) {
            for (unsigned bx = 0; bx < Mpeg2Layout::kW / 8; ++bx) {
                Addr out = L.dRec0 + by * 8 * P + bx * 8;
                emitAddblock(p, L.const128, 0, blockAddr(idx++), out, P);
            }
        }
    }

    // ---- P frame: parse MVs + predict, parse blocks, batched idct,
    // reconstruct.
    SReg mv = p.sreg();
    constexpr unsigned nMbs = Mpeg2Layout::kMbW * Mpeg2Layout::kMbH;
    for (unsigned mb = 0; mb < nMbs; ++mb) {
        unsigned mbx = mb % Mpeg2Layout::kMbW;
        unsigned mby = mb / Mpeg2Layout::kMbW;
        u64 dxRaw = br.get(mv, 5);
        u64 dyRaw = br.get(mv, 5);
        int dx = int(dxRaw) - 8;
        int dy = int(dyRaw) - 8;
        Addr refMb = L.dRec0 + mby * 16 * P + mbx * 16;
        Addr refBlock = refMb + Addr(s64(dy) * s64(P) + dx);
        bool halfpel = ((dx + dy) & 1) != 0;
        emitPrediction(p, refBlock, P, halfpel, L.predArr + mb * 256);
    }
    for (unsigned idx = 0; idx < nMbs * 4; ++idx)
        parseBlock(p, br, blockAddr(idx));
    emitDctBatch(p, tabs, L.blockArr, nMbs * 4, false);
    for (unsigned mb = 0; mb < nMbs; ++mb) {
        unsigned mbx = mb % Mpeg2Layout::kMbW;
        unsigned mby = mb / Mpeg2Layout::kMbW;
        for (unsigned q = 0; q < 4; ++q) {
            unsigned qx = (q & 1) * 8;
            unsigned qy = (q >> 1) * 8;
            Addr predQ = L.predArr + mb * 256 + qy * 16 + qx;
            Addr outQ = L.dRec1 + (mby * 16 + qy) * P + mbx * 16 + qx;
            emitAddblock(p, predQ, 16, blockAddr(mb * 4 + q), outQ, P);
        }
    }
    p.release(f);
}

u64
Mpeg2Dec::checksum(const MemImage &mem) const
{
    const Mpeg2Layout &L = enc_.layout();
    u64 h = 1469598103934665603ull;
    for (unsigned y = 0; y < Mpeg2Layout::kH; ++y) {
        h = hashRange(mem, L.dRec0 + y * Mpeg2Layout::kPitch,
                      Mpeg2Layout::kW, h);
        h = hashRange(mem, L.dRec1 + y * Mpeg2Layout::kPitch,
                      Mpeg2Layout::kW, h);
    }
    return h;
}

} // namespace vmmx
