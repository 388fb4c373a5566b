#include "apps/gsm.hh"

#include <cmath>

#include "apps/bitstream.hh"
#include "kernels/kops_gsm.hh"
#include "kernels/kops_util.hh"

namespace vmmx
{

namespace
{

using namespace kops;

/** Fixed lattice reflection coefficients (Q12). */
constexpr s64 kRefl[8] = {1638, -1228, 819, -409, 204, -102, 51, -25};

/**
 * Scalar lattice filter over one frame: analysis (forward) removes the
 * short-term correlation, synthesis re-inserts it.  This is the big
 * scalar block that bounds the GSM apps' SIMD benefit.
 */
void
emitLattice(Program &p, Addr in, Addr out, bool analysis)
{
    auto f = p.mark();
    SReg v = p.sreg();
    SReg t = p.sreg();
    SReg addr = p.sreg();
    SReg stage[8];
    for (auto &s : stage) {
        s = p.sreg();
        p.li(s, 0);
    }

    p.forLoop(GsmLayout::kFrame, [&](SReg k) {
        p.slli(addr, k, 1);
        p.addi(addr, addr, s64(in));
        p.load(v, addr, 0, 2, true);
        if (analysis) {
            // FIR stages: y = x - (g * x[k-1]) >> 12 per stage.
            for (unsigned j = 0; j < 8; ++j) {
                p.muli(t, stage[j], kRefl[j]);
                p.srai(t, t, 12);
                p.mov(stage[j], v);
                p.sub(v, v, t);
            }
        } else {
            // Inverse: IIR stages in reverse order, feeding back each
            // stage's *output* (approximate inverse under Q12
            // truncation).
            for (int j = 7; j >= 0; --j) {
                p.muli(t, stage[j], kRefl[j]);
                p.srai(t, t, 12);
                p.add(v, v, t);
                p.mov(stage[j], v);
            }
        }
        p.slli(addr, k, 1);
        p.addi(addr, addr, s64(out));
        p.store(v, addr, 0, 2);
    });
    p.release(f);
}

/** Scalar autocorrelation over one frame (9 lags) -- encoder-side LPC
 *  work whose result feeds the (fixed) quantised reflection set. */
void
emitAutocorr(Program &p, Addr in, Addr scratch)
{
    auto f = p.mark();
    SReg acc = p.sreg();
    SReg a = p.sreg();
    SReg b = p.sreg();
    SReg t = p.sreg();
    SReg addr = p.sreg();
    for (unsigned lag = 0; lag < 9; ++lag) {
        p.li(acc, 0);
        p.forLoop(GsmLayout::kFrame - lag, [&](SReg k) {
            p.slli(t, k, 1);
            p.addi(addr, t, s64(in));
            p.load(a, addr, 0, 2, true);
            p.load(b, addr, s64(2 * lag), 2, true);
            p.mul(a, a, b);
            p.add(acc, acc, a);
        });
        p.li(t, scratch + 8 * lag);
        p.store(acc, t, 0, 8);
    }
    p.release(f);
}

} // namespace

void
GsmLayout::alloc(MemImage &mem)
{
    input = mem.alloc(2 * kTotal + 64);
    spre = mem.alloc(2 * kFrame + 64);
    resid = mem.alloc(2 * kFrame + 64);
    hist = mem.alloc(2 * 240 + 64);
    dHist = mem.alloc(2 * 240 + 64);
    erp = mem.alloc(2 * kFrame + 64);
    nc = mem.alloc(16);
    bc = mem.alloc(16);
    output = mem.alloc(2 * kTotal + 64);
    stream = mem.alloc(16 * 1024);
    streamLen = mem.alloc(8);
}

void
GsmEnc::prepare(MemImage &mem, Rng &rng)
{
    lay_.alloc(mem);
    // Synthetic voiced-ish speech: two sinusoids plus noise.
    for (unsigned k = 0; k < GsmLayout::kTotal; ++k) {
        double v = 2500.0 * std::sin(2.0 * M_PI * k / 57.0) +
                   900.0 * std::sin(2.0 * M_PI * k / 13.0);
        v += double(rng.range(-80, 80));
        mem.write16(lay_.input + 2 * k, u16(s16(std::lround(v))));
    }
}

void
GsmEnc::emit(Program &p)
{
    const GsmLayout &L = lay_;
    auto f = p.mark();
    DslBitWriter bw(p, L.stream);
    Addr autocorrScratch = p.mem().alloc(128, 8);

    SReg v = p.sreg();
    SReg t = p.sreg();
    SReg addr = p.sreg();
    SReg prev = p.sreg();

    for (unsigned fr = 0; fr < GsmLayout::kFrames; ++fr) {
        Addr frameIn = L.input + 2 * fr * GsmLayout::kFrame;

        // Preemphasis: s[k] = x[k] - (28180 x[k-1]) >> 15  (scalar).
        p.li(prev, 0);
        p.forLoop(GsmLayout::kFrame, [&](SReg k) {
            p.slli(addr, k, 1);
            p.addi(addr, addr, s64(frameIn));
            p.load(v, addr, 0, 2, true);
            p.muli(t, prev, 28180);
            p.srai(t, t, 15);
            p.mov(prev, v);
            p.sub(v, v, t);
            p.slli(addr, k, 1);
            p.addi(addr, addr, s64(L.spre));
            p.store(v, addr, 0, 2);
        });

        // LPC work: autocorrelation + lattice analysis (scalar).
        emitAutocorr(p, L.spre, autocorrScratch);
        emitLattice(p, L.spre, L.resid, true);

        // Per-subframe LTP (vectorised lag search) + RPE coding.
        for (unsigned sub = 0; sub < 3; ++sub) {
            Addr d = L.resid + 2 * sub * 40;
            Addr histWin = L.hist + 2 * sub * 40;
            {
                VectorRegion vr(p);
                auto f2 = p.mark();
                SReg dreg = p.sreg();
                SReg hreg = p.sreg();
                SReg ol = p.sreg();
                SReg ob = p.sreg();
                p.li(dreg, d);
                p.li(hreg, histWin);
                p.li(ol, L.nc + 2 * sub);
                p.li(ob, L.bc + 2 * sub);
                if (p.matrix()) {
                    Vmmx vm(p);
                    ltpparVmmx(p, vm, dreg, hreg, ol, ob);
                } else {
                    Mmx m(p);
                    ltpparMmx(p, m, dreg, hreg, ol, ob);
                }
                p.release(f2);
            }

            // Scalar: code lag/gain, compute LTP residual, quantise,
            // reconstruct the history (must mirror ltpfilt exactly).
            auto f3 = p.mark();
            SReg ncv = p.sreg();
            SReg qlb = p.sreg();
            SReg hbase = p.sreg();
            SReg pr = p.sreg();
            SReg e = p.sreg();
            p.li(addr, L.nc + 2 * sub);
            p.load(ncv, addr, 0, 2);
            bw.put(ncv, 7);
            p.li(addr, L.bc + 2 * sub);
            p.load(qlb, addr, 0, 2);
            bw.put(qlb, 2);
            // qlb value lookup.
            u16 qtab[4];
            for (unsigned i = 0; i < 4; ++i)
                qtab[i] = u16(gsmQLB[i]);
            Addr qaddr = stash(p, qtab, sizeof(qtab));
            p.slli(qlb, qlb, 1);
            p.addi(qlb, qlb, s64(qaddr));
            p.load(qlb, qlb, 0, 2);
            // hbase = hist + 2*(120 + sub*40) - 2*nc
            p.li(hbase, L.hist + 2 * (120 + sub * 40));
            p.slli(ncv, ncv, 1);
            p.sub(hbase, hbase, ncv);

            SReg dptr = p.sreg();
            SReg wptr = p.sreg();
            p.li(dptr, d);
            p.li(wptr, L.hist + 2 * (120 + sub * 40));
            p.forLoop(40, [&](SReg k) {
                p.slli(t, k, 1);
                // pred = (qlb * hist[k - nc] + 16384) >> 15
                p.add(addr, hbase, t);
                p.load(pr, addr, 0, 2, true);
                p.mul(pr, pr, qlb);
                p.addi(pr, pr, 16384);
                p.srai(pr, pr, 15);
                // e = d - pred; quantise to 3 bits.
                p.add(addr, dptr, t);
                p.load(e, addr, 0, 2, true);
                p.sub(e, e, pr);
                p.addi(e, e, 32);
                p.srai(e, e, 6);
                SReg lim = v;
                p.li(lim, u64(s64(-4)));
                if (p.brLt(e, lim))
                    p.mov(e, lim);
                p.li(lim, 3);
                if (p.brLt(lim, e))
                    p.mov(e, lim);
                p.addi(e, e, 4);
                bw.put(e, 3);
                // Reconstruct exactly as the decoder will.
                p.addi(e, e, -4);
                p.slli(e, e, 6);
                p.add(e, e, pr);
                p.li(lim, 32767);
                if (p.brLt(lim, e))
                    p.mov(e, lim);
                p.li(lim, u64(s64(-32768)));
                if (p.brLt(e, lim))
                    p.mov(e, lim);
                p.add(addr, wptr, t);
                p.store(e, addr, 0, 2);
            });
            p.release(f3);
        }

        // Slide the LTP history window by one frame (scalar copy).
        p.forLoop(120, [&](SReg k) {
            p.slli(t, k, 1);
            p.li(addr, L.hist + 240);
            p.add(addr, addr, t);
            p.load(v, addr, 0, 2);
            p.li(addr, L.hist);
            p.add(addr, addr, t);
            p.store(v, addr, 0, 2);
        });
    }
    bw.flush();

    SReg len = p.sreg();
    p.li(len, bw.bytesWritten());
    p.li(addr, L.streamLen);
    p.store(len, addr, 0, 8);
    p.release(f);
}

u64
GsmEnc::checksum(const MemImage &mem) const
{
    u64 n = mem.read64(lay_.streamLen);
    u64 h = 1469598103934665603ull;
    return hashRange(mem, lay_.stream, size_t(n), h) ^ n;
}

void
GsmDec::prepare(MemImage &mem, Rng &rng)
{
    enc_.prepare(mem, rng);
    Program tmp(mem, SimdKind::MMX64, discardSink());
    enc_.emit(tmp);
}

void
GsmDec::emit(Program &p)
{
    const GsmLayout &L = enc_.layout();
    auto f = p.mark();
    DslBitReader br(p, L.stream);

    SReg v = p.sreg();
    SReg t = p.sreg();
    SReg addr = p.sreg();
    SReg prev = p.sreg();

    for (unsigned fr = 0; fr < GsmLayout::kFrames; ++fr) {
        // Parse: per subframe nc, bc, 40 excitation codes (scalar).
        for (unsigned sub = 0; sub < 3; ++sub) {
            br.get(v, 7);
            p.li(addr, L.nc + 2 * sub);
            p.store(v, addr, 0, 2);
            br.get(v, 2);
            p.li(addr, L.bc + 2 * sub);
            p.store(v, addr, 0, 2);
            for (unsigned k = 0; k < 40; ++k) {
                br.get(v, 3);
                p.addi(v, v, -4);
                p.slli(v, v, 6);
                p.li(addr, L.erp + 2 * (sub * 40 + k));
                p.store(v, addr, 0, 2);
            }
        }

        // Long-term synthesis over the three subframes (vectorised).
        {
            VectorRegion vr(p);
            auto f2 = p.mark();
            SReg e = p.sreg();
            SReg b = p.sreg();
            SReg n = p.sreg();
            SReg c = p.sreg();
            p.li(e, L.erp);
            p.li(b, L.dHist);
            p.li(n, L.nc);
            p.li(c, L.bc);
            if (p.matrix()) {
                Vmmx vm(p);
                kops::ltpfiltVmmx(p, vm, e, b, n, c);
            } else {
                Mmx m(p);
                kops::ltpfiltMmx(p, m, e, b, n, c);
            }
            p.release(f2);
        }

        // Short-term synthesis + deemphasis (scalar).
        Addr frameOut = L.output + 2 * fr * GsmLayout::kFrame;
        emitLattice(p, L.dHist + 240, L.spre, false);
        p.li(prev, 0);
        p.forLoop(GsmLayout::kFrame, [&](SReg k) {
            p.slli(addr, k, 1);
            p.addi(addr, addr, s64(L.spre));
            p.load(v, addr, 0, 2, true);
            p.muli(t, prev, 28180);
            p.srai(t, t, 15);
            p.add(v, v, t);
            p.mov(prev, v);
            p.slli(addr, k, 1);
            p.addi(addr, addr, s64(frameOut));
            p.store(v, addr, 0, 2);
        });

        // Slide history.
        p.forLoop(120, [&](SReg k) {
            p.slli(t, k, 1);
            p.li(addr, L.dHist + 240);
            p.add(addr, addr, t);
            p.load(v, addr, 0, 2);
            p.li(addr, L.dHist);
            p.add(addr, addr, t);
            p.store(v, addr, 0, 2);
        });
    }
    p.release(f);
}

u64
GsmDec::checksum(const MemImage &mem) const
{
    const GsmLayout &L = enc_.layout();
    u64 h = 1469598103934665603ull;
    return hashRange(mem, L.output, 2 * GsmLayout::kTotal, h);
}

} // namespace vmmx
