/**
 * @file
 * The eleven Table II kernels packaged behind the Kernel interface.
 */

#include "kernels/kernel.hh"

#include "kernels/kops_block.hh"
#include "kernels/kops_color.hh"
#include "kernels/kops_dct.hh"
#include "kernels/kops_gsm.hh"
#include "kernels/kops_motion.hh"
#include "kernels/kops_resample.hh"

namespace vmmx
{

namespace
{

using namespace kops;

/** Fill [addr, addr+n) with random bytes. */
void
fillBytes(MemImage &mem, Rng &rng, Addr addr, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        mem.write8(addr + i, rng.byte());
}

void
fillS16(MemImage &mem, Rng &rng, Addr addr, size_t n, s64 lo, s64 hi)
{
    for (size_t i = 0; i < n; ++i)
        mem.write16(addr + 2 * i, u16(s16(rng.range(lo, hi))));
}

// ---------------------------------------------------------------- motion

/** Shared base for the two motion-estimation kernels: a candidate
 *  search over NCAND positions of a 16x16 block in a synthetic frame. */
class MotionKernel : public Kernel
{
  public:
    static constexpr unsigned kLx = 720;
    static constexpr unsigned kH = 16;
    static constexpr unsigned kCands = 24;

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        frame_ = mem.alloc(kLx * 64 + kCands + 64);
        fillBytes(mem, rng, frame_, kLx * 64 + kCands + 16);
        p1_ = frame_ + 8;
        p2_ = frame_ + 24 * kLx + 11;
        out_ = mem.alloc(16);
        exp_ = mem.alloc(16);
    }

    void
    golden(MemImage &mem) override
    {
        u64 best = ~u64(0);
        u64 bestIdx = 0;
        for (unsigned c = 0; c < kCands; ++c) {
            u64 s = metric(mem, p1_, p2_ + c);
            if (s < best) {
                best = s;
                bestIdx = c;
            }
        }
        mem.write64(exp_, best);
        mem.write64(exp_ + 8, bestIdx);
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, 16, "best SAD/index"}};
    }

    void
    emitScalar(Program &p) override
    {
        emitSearch(p, [&](Program &pp, SReg a, SReg b, SReg s) {
            scalarMetric(pp, a, b, s);
        });
    }

  protected:
    virtual u64 metric(const MemImage &mem, Addr a, Addr b) const = 0;
    virtual void scalarMetric(Program &p, SReg a, SReg b, SReg out) = 0;

    template <typename Fn>
    void
    emitSearch(Program &p, Fn &&metricEmit)
    {
        auto f = p.mark();
        SReg p1 = p.sreg();
        SReg p2 = p.sreg();
        SReg sad = p.sreg();
        SReg best = p.sreg();
        SReg bestIdx = p.sreg();
        SReg outp = p.sreg();
        p.li(p1, p1_);
        p.li(best, ~u64(0) >> 1);
        p.li(bestIdx, 0);
        p.forLoop(kCands, [&](SReg c) {
            p.li(p2, p2_);
            p.add(p2, p2, c);
            metricEmit(p, p1, p2, sad);
            if (p.brLt(sad, best)) {
                p.mov(best, sad);
                p.mov(bestIdx, c);
            }
        });
        p.li(outp, out_);
        p.store(best, outp, 0, 8);
        p.store(bestIdx, outp, 8, 8);
        p.release(f);
    }

    Addr frame_ = 0;
    Addr p1_ = 0;
    Addr p2_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

/**
 * motion1: the sum of absolute differences of a 16x16 8-bit block
 * against each of kCands candidate positions, keeping the best sum and
 * its index (the MPEG-2 encoder's motion-estimation inner loop).
 */
class Motion1Kernel : public MotionKernel
{
  public:
    std::string name() const override { return "motion1"; }

  protected:
    u64
    metric(const MemImage &mem, Addr a, Addr b) const override
    {
        return goldenSad(mem, a, b, kH, kLx);
    }

    void
    scalarMetric(Program &p, SReg a, SReg b, SReg out) override
    {
        sadScalar(p, a, b, kH, kLx, out);
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        emitSearch(p, [&](Program &pp, SReg a, SReg b, SReg s) {
            sadMmx(pp, m, a, b, kH, kLx, s);
        });
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        SReg lx = p.sreg();
        p.li(lx, kLx);
        emitSearch(p, [&](Program &pp, SReg a, SReg b, SReg s) {
            sadVmmx(pp, v, a, b, kH, lx, s);
        });
        p.release(f);
    }
};

/**
 * motion2: motion1's candidate search, scoring each candidate by the
 * sum of quadratic (squared) differences of the 16x16 8-bit blocks
 * instead of the sum of absolute differences.
 */
class Motion2Kernel : public MotionKernel
{
  public:
    std::string name() const override { return "motion2"; }

  protected:
    u64
    metric(const MemImage &mem, Addr a, Addr b) const override
    {
        return goldenSqd(mem, a, b, kH, kLx);
    }

    void
    scalarMetric(Program &p, SReg a, SReg b, SReg out) override
    {
        sqdScalar(p, a, b, kH, kLx, out);
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        emitSearch(p, [&](Program &pp, SReg a, SReg b, SReg s) {
            sqdMmx(pp, m, a, b, kH, kLx, s);
        });
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        SReg lx = p.sreg();
        p.li(lx, kLx);
        emitSearch(p, [&](Program &pp, SReg a, SReg b, SReg s) {
            sqdVmmx(pp, v, a, b, kH, lx, s);
        });
        p.release(f);
    }
};

// ---------------------------------------------------------------- comp

/**
 * comp: bidirectional motion compensation -- the rounded average of two
 * 8x4 8-bit predictions from an 800-pixel-wide frame, for kBlocks
 * horizontally adjacent blocks.
 */
class CompKernel : public Kernel
{
  public:
    static constexpr unsigned kLx = 800;
    static constexpr unsigned kBlocks = 32;

    std::string name() const override { return "comp"; }

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        frame_ = mem.alloc(kLx * 16 + 64);
        fillBytes(mem, rng, frame_, kLx * 16 + 32);
        out_ = mem.alloc(kBlocks * 8 * kOutLx + 64);
        exp_ = mem.alloc(kBlocks * 8 * kOutLx + 64);
    }

    void
    golden(MemImage &mem) override
    {
        for (unsigned b = 0; b < kBlocks; ++b) {
            goldenComp(mem, frame_ + b * 8, frame_ + 4 * kLx + b * 8,
                       exp_ + b * 8, 8, 4, kLx, kOutLx);
        }
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, 4 * kOutLx, "predicted rows"}};
    }

    void
    emitScalar(Program &p) override
    {
        forBlocks(p, [&](Program &pp, SReg a, SReg b, SReg o) {
            compScalar(pp, a, b, o, 8, 4, kLx, kOutLx);
        });
    }

  protected:
    static constexpr unsigned kOutLx = kBlocks * 8;

    template <typename Fn>
    void
    forBlocks(Program &p, Fn &&fn)
    {
        auto f = p.mark();
        SReg a = p.sreg();
        SReg b = p.sreg();
        SReg o = p.sreg();
        SReg t = p.sreg();
        p.forLoop(kBlocks, [&](SReg bi) {
            p.slli(t, bi, 3);
            p.li(a, frame_);
            p.add(a, a, t);
            p.li(b, frame_ + 4 * kLx);
            p.add(b, b, t);
            p.li(o, out_);
            p.add(o, o, t);
            fn(p, a, b, o);
        });
        p.release(f);
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        forBlocks(p, [&](Program &pp, SReg a, SReg b, SReg o) {
            compMmx(pp, m, a, b, o, 8, 4, kLx, kOutLx);
        });
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        SReg lx = p.sreg();
        SReg olx = p.sreg();
        p.li(lx, kLx);
        p.li(olx, kOutLx);
        forBlocks(p, [&](Program &pp, SReg a, SReg b, SReg o) {
            compVmmx(pp, v, a, b, o, 8, 4, lx, olx);
        });
        p.release(f);
    }

    Addr frame_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

// ---------------------------------------------------------------- addblock

/**
 * addblock: picture reconstruction -- an 8x8 8-bit prediction block
 * plus its 16-bit residual, saturated back to 8 bits, for kBlocks
 * horizontally adjacent blocks.
 */
class AddblockKernel : public Kernel
{
  public:
    static constexpr unsigned kLx = 720;
    static constexpr unsigned kBlocks = 32;
    static constexpr unsigned kOutLx = kBlocks * 8;

    std::string name() const override { return "addblock"; }

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        frame_ = mem.alloc(kLx * 16 + 64);
        fillBytes(mem, rng, frame_, kLx * 16 + 32);
        res_ = mem.alloc(kBlocks * 64 * 2);
        fillS16(mem, rng, res_, kBlocks * 64, -300, 300);
        out_ = mem.alloc(8 * kOutLx + 64);
        exp_ = mem.alloc(8 * kOutLx + 64);
    }

    void
    golden(MemImage &mem) override
    {
        for (unsigned b = 0; b < kBlocks; ++b) {
            goldenAddblock(mem, frame_ + b * 8, res_ + b * 128,
                           exp_ + b * 8, kLx, kOutLx);
        }
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, 8 * kOutLx, "reconstructed rows"}};
    }

    void
    emitScalar(Program &p) override
    {
        forBlocks(p, [&](Program &pp, SReg pr, SReg re, SReg o) {
            addblockScalar(pp, pr, re, o, kLx, kOutLx);
        });
    }

  protected:
    template <typename Fn>
    void
    forBlocks(Program &p, Fn &&fn)
    {
        auto f = p.mark();
        SReg pr = p.sreg();
        SReg re = p.sreg();
        SReg o = p.sreg();
        SReg t = p.sreg();
        p.forLoop(kBlocks, [&](SReg bi) {
            p.slli(t, bi, 3);
            p.li(pr, frame_);
            p.add(pr, pr, t);
            p.li(o, out_);
            p.add(o, o, t);
            p.slli(re, bi, 7);
            p.li(t, res_);
            p.add(re, re, t);
            fn(p, pr, re, o);
        });
        p.release(f);
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        forBlocks(p, [&](Program &pp, SReg pr, SReg re, SReg o) {
            addblockMmx(pp, m, pr, re, o, kLx, kOutLx);
        });
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        SReg lx = p.sreg();
        SReg olx = p.sreg();
        p.li(lx, kLx);
        p.li(olx, kOutLx);
        forBlocks(p, [&](Program &pp, SReg pr, SReg re, SReg o) {
            addblockVmmx(pp, v, pr, re, o, lx, olx);
        });
        p.release(f);
    }

    Addr frame_ = 0;
    Addr res_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

// ---------------------------------------------------------------- dct

class DctKernelBase : public Kernel
{
  public:
    static constexpr unsigned kBlocks = 12;

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        in_ = mem.alloc(kBlocks * 128);
        out_ = mem.alloc(kBlocks * 128);
        exp_ = mem.alloc(kBlocks * 128);
        // Sparse, quantised-looking coefficients / pixel differences.
        for (unsigned b = 0; b < kBlocks; ++b) {
            for (unsigned k = 0; k < 64; ++k) {
                s64 v = 0;
                if (k == 0 || rng.below(4) == 0)
                    v = rng.range(forward() ? -255 : -2000,
                                  forward() ? 255 : 2000);
                mem.write16(in_ + b * 128 + 2 * k, u16(s16(v)));
            }
        }
    }

    void
    golden(MemImage &mem) override
    {
        for (unsigned b = 0; b < kBlocks; ++b)
            goldenDct8x8(mem, in_ + b * 128, exp_ + b * 128, forward());
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, kBlocks * 128, "transformed blocks"}};
    }

    void
    emitScalar(Program &p) override
    {
        auto tabs = prepareDctTables(p);
        forBlocks(p, [&](Program &pp, SReg i, SReg o) {
            dctScalar(pp, tabs, i, o, forward());
        });
    }

  protected:
    virtual bool forward() const = 0;

    template <typename Fn>
    void
    forBlocks(Program &p, Fn &&fn)
    {
        auto f = p.mark();
        SReg i = p.sreg();
        SReg o = p.sreg();
        SReg t = p.sreg();
        p.forLoop(kBlocks, [&](SReg bi) {
            p.slli(t, bi, 7);
            p.li(i, in_);
            p.add(i, i, t);
            p.li(o, out_);
            p.add(o, o, t);
            fn(p, i, o);
        });
        p.release(f);
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        auto tabs = prepareDctTables(p);
        forBlocks(p, [&](Program &pp, SReg i, SReg o) {
            dctMmx(pp, m, tabs, i, o, forward());
        });
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto tabs = prepareDctTables(p);
        // Coefficient matrices stay register-resident across all
        // blocks (the paper's registers-as-cache optimisation).
        auto ctx = dctVmmxLoadTables(p, v, tabs, forward());
        forBlocks(p, [&](Program &pp, SReg i, SReg o) {
            dctVmmxBlock(pp, v, tabs, ctx, i, o);
        });
    }

    Addr in_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

class IdctKernel : public DctKernelBase
{
  public:
    std::string name() const override { return "idct"; }

  protected:
    bool forward() const override { return false; }
};

class FdctKernel : public DctKernelBase
{
  public:
    std::string name() const override { return "fdct"; }

  protected:
    bool forward() const override { return true; }
};

// ---------------------------------------------------------------- rgb

class RgbKernel : public Kernel
{
  public:
    static constexpr unsigned kPixels = 1920;

    std::string name() const override { return "rgb"; }

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        rgb_ = mem.alloc(kPixels * 3 + 64);
        fillBytes(mem, rng, rgb_, kPixels * 3 + 32);
        out_ = mem.alloc(3 * (kPixels + 64));
        exp_ = mem.alloc(3 * (kPixels + 64));
    }

    void
    golden(MemImage &mem) override
    {
        goldenRgb2Ycc(mem, rgb_, exp_, exp_ + plane(), exp_ + 2 * plane(),
                      kPixels);
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, kPixels, "Y plane"},
                {out_ + plane(), exp_ + plane(), kPixels, "Cb plane"},
                {out_ + 2 * plane(), exp_ + 2 * plane(), kPixels,
                 "Cr plane"}};
    }

    void
    emitScalar(Program &p) override
    {
        auto f = p.mark();
        auto [s, y, cb, cr] = addrRegs(p);
        rgb2YccScalar(p, s, y, cb, cr, kPixels);
        p.release(f);
    }

  protected:
    Addr plane() const { return kPixels + 64; }

    std::tuple<SReg, SReg, SReg, SReg>
    addrRegs(Program &p)
    {
        SReg s = p.sreg();
        SReg y = p.sreg();
        SReg cb = p.sreg();
        SReg cr = p.sreg();
        p.li(s, rgb_);
        p.li(y, out_);
        p.li(cb, out_ + plane());
        p.li(cr, out_ + 2 * plane());
        return {s, y, cb, cr};
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        auto f = p.mark();
        auto [s, y, cb, cr] = addrRegs(p);
        rgb2YccMmx(p, m, s, y, cb, cr, kPixels);
        p.release(f);
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        auto [s, y, cb, cr] = addrRegs(p);
        rgb2YccVmmx(p, v, s, y, cb, cr, kPixels);
        p.release(f);
    }

    Addr rgb_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

// ---------------------------------------------------------------- ycc

class YccKernel : public Kernel
{
  public:
    static constexpr unsigned kPixels = 3840;

    std::string name() const override { return "ycc"; }

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        in_ = mem.alloc(3 * kPixels + 64);
        fillBytes(mem, rng, in_, 3 * kPixels + 32);
        out_ = mem.alloc(3 * kPixels + 64);
        exp_ = mem.alloc(3 * kPixels + 64);
    }

    void
    golden(MemImage &mem) override
    {
        goldenYcc2Rgb(mem, in_, in_ + kPixels, in_ + 2 * kPixels, exp_,
                      exp_ + kPixels, exp_ + 2 * kPixels, kPixels);
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, 3 * kPixels, "R/G/B planes"}};
    }

    void
    emitScalar(Program &p) override
    {
        auto f = p.mark();
        auto regs = addrRegs(p);
        ycc2RgbScalar(p, regs[0], regs[1], regs[2], regs[3], regs[4],
                      regs[5], kPixels);
        p.release(f);
    }

  protected:
    std::array<SReg, 6>
    addrRegs(Program &p)
    {
        std::array<SReg, 6> r;
        for (auto &reg : r)
            reg = p.sreg();
        p.li(r[0], in_);
        p.li(r[1], in_ + kPixels);
        p.li(r[2], in_ + 2 * kPixels);
        p.li(r[3], out_);
        p.li(r[4], out_ + kPixels);
        p.li(r[5], out_ + 2 * kPixels);
        return r;
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        auto f = p.mark();
        auto r = addrRegs(p);
        ycc2RgbMmx(p, m, r[0], r[1], r[2], r[3], r[4], r[5], kPixels);
        p.release(f);
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        auto r = addrRegs(p);
        ycc2RgbVmmx(p, v, r[0], r[1], r[2], r[3], r[4], r[5], kPixels);
        p.release(f);
    }

    Addr in_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

// ---------------------------------------------------------------- h2v2

class H2v2Kernel : public Kernel
{
  public:
    static constexpr unsigned kW = 64;
    static constexpr unsigned kH = 32;
    static constexpr unsigned kPitch = kW + 32;
    static constexpr unsigned kOutPitch = 2 * kW;

    std::string name() const override { return "h2v2"; }

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        base_ = mem.alloc(kPitch * (kH + 2) + 64);
        src_ = base_ + kPitch + 1;
        // Interior + replicated border.
        for (unsigned r = 0; r < kH; ++r)
            for (unsigned c = 0; c < kW; ++c)
                mem.write8(src_ + r * kPitch + c, rng.byte());
        for (unsigned r = 0; r < kH; ++r) {
            mem.write8(src_ + r * kPitch - 1, mem.read8(src_ + r * kPitch));
            for (unsigned c = kW; c < kPitch - 1; ++c)
                mem.write8(src_ + r * kPitch + c,
                           mem.read8(src_ + r * kPitch + kW - 1));
        }
        for (unsigned c = 0; c < kPitch; ++c) {
            Addr top = src_ - kPitch - 1 + c;
            mem.write8(top, mem.read8(src_ - 1 + c));
            Addr bot = src_ + kH * kPitch - 1 + c;
            mem.write8(bot, mem.read8(src_ + (kH - 1) * kPitch - 1 + c));
        }
        out_ = mem.alloc(kOutPitch * 2 * kH + 64);
        exp_ = mem.alloc(kOutPitch * 2 * kH + 64);
    }

    void
    golden(MemImage &mem) override
    {
        goldenH2v2(mem, src_, kPitch, exp_, kOutPitch, kW, kH);
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, kOutPitch * 2 * kH, "up-sampled image"}};
    }

    void
    emitScalar(Program &p) override
    {
        auto f = p.mark();
        SReg s = p.sreg();
        SReg d = p.sreg();
        p.li(s, src_);
        p.li(d, out_);
        h2v2Scalar(p, s, kPitch, d, kOutPitch, kW, kH);
        p.release(f);
    }

  protected:
    void
    emitMmx(Program &p, Mmx &m) override
    {
        auto f = p.mark();
        SReg s = p.sreg();
        SReg d = p.sreg();
        p.li(s, src_);
        p.li(d, out_);
        h2v2Mmx(p, m, s, kPitch, d, kOutPitch, kW, kH);
        p.release(f);
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        SReg s = p.sreg();
        SReg d = p.sreg();
        p.li(s, src_);
        p.li(d, out_);
        h2v2Vmmx(p, v, s, kPitch, d, kOutPitch, kW, kH);
        p.release(f);
    }

    Addr base_ = 0;
    Addr src_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

// ---------------------------------------------------------------- ltppar

class LtpparKernel : public Kernel
{
  public:
    std::string name() const override { return "ltppar"; }

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        d_ = mem.alloc(80 + 16);
        hist_ = mem.alloc(240 + 16);
        fillS16(mem, rng, d_, 40, -1023, 1023);
        fillS16(mem, rng, hist_, 120, -1023, 1023);
        out_ = mem.alloc(8);
        exp_ = mem.alloc(8);
    }

    void
    golden(MemImage &mem) override
    {
        goldenLtppar(mem, d_, hist_, exp_, exp_ + 2);
    }

    std::vector<Output>
    outputs() const override
    {
        return {{out_, exp_, 4, "best lag + gain index"}};
    }

    void
    emitScalar(Program &p) override
    {
        auto f = p.mark();
        auto [d, h, ol, ob] = regs(p);
        ltpparScalar(p, d, h, ol, ob);
        p.release(f);
    }

  protected:
    std::tuple<SReg, SReg, SReg, SReg>
    regs(Program &p)
    {
        SReg d = p.sreg();
        SReg h = p.sreg();
        SReg ol = p.sreg();
        SReg ob = p.sreg();
        p.li(d, d_);
        p.li(h, hist_);
        p.li(ol, out_);
        p.li(ob, out_ + 2);
        return {d, h, ol, ob};
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        auto f = p.mark();
        auto [d, h, ol, ob] = regs(p);
        ltpparMmx(p, m, d, h, ol, ob);
        p.release(f);
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        auto [d, h, ol, ob] = regs(p);
        ltpparVmmx(p, v, d, h, ol, ob);
        p.release(f);
    }

    Addr d_ = 0;
    Addr hist_ = 0;
    Addr out_ = 0;
    Addr exp_ = 0;
};

// ---------------------------------------------------------------- ltpfilt

class LtpfiltKernel : public Kernel
{
  public:
    std::string name() const override { return "ltpfilt"; }

    void
    prepare(MemImage &mem, Rng &rng) override
    {
        erp_ = mem.alloc(240 + 16);
        fillS16(mem, rng, erp_, 120, -4000, 4000);
        buf_ = mem.alloc(480 + 16);
        expBuf_ = mem.alloc(480 + 16);
        fillS16(mem, rng, buf_, 120, -8000, 8000);
        for (unsigned k = 0; k < 120; ++k)
            mem.write16(expBuf_ + 2 * k, mem.read16(buf_ + 2 * k));
        nc_ = mem.alloc(8);
        bc_ = mem.alloc(8);
        static const u16 ncv[3] = {44, 57, 103};
        static const u16 bcv[3] = {1, 3, 2};
        for (unsigned i = 0; i < 3; ++i) {
            mem.write16(nc_ + 2 * i, ncv[i]);
            mem.write16(bc_ + 2 * i, bcv[i]);
        }
    }

    void
    golden(MemImage &mem) override
    {
        goldenLtpfilt(mem, erp_, expBuf_, nc_, bc_);
    }

    std::vector<Output>
    outputs() const override
    {
        return {{buf_ + 240, expBuf_ + 240, 240, "synthesised samples"}};
    }

    void
    emitScalar(Program &p) override
    {
        auto f = p.mark();
        auto [e, b, n, c] = regs(p);
        ltpfiltScalar(p, e, b, n, c);
        p.release(f);
    }

  protected:
    std::tuple<SReg, SReg, SReg, SReg>
    regs(Program &p)
    {
        SReg e = p.sreg();
        SReg b = p.sreg();
        SReg n = p.sreg();
        SReg c = p.sreg();
        p.li(e, erp_);
        p.li(b, buf_);
        p.li(n, nc_);
        p.li(c, bc_);
        return {e, b, n, c};
    }

    void
    emitMmx(Program &p, Mmx &m) override
    {
        auto f = p.mark();
        auto [e, b, n, c] = regs(p);
        ltpfiltMmx(p, m, e, b, n, c);
        p.release(f);
    }

    void
    emitVmmx(Program &p, Vmmx &v) override
    {
        auto f = p.mark();
        auto [e, b, n, c] = regs(p);
        ltpfiltVmmx(p, v, e, b, n, c);
        p.release(f);
    }

    Addr erp_ = 0;
    Addr buf_ = 0;
    Addr expBuf_ = 0;
    Addr nc_ = 0;
    Addr bc_ = 0;
};

} // namespace

std::vector<std::string>
kernelNames()
{
    return {"idct", "motion1", "motion2", "comp", "addblock", "rgb",
            "ycc", "h2v2", "ltppar", "ltpfilt", "fdct"};
}

std::unique_ptr<Kernel>
makeKernel(const std::string &name)
{
    if (name == "idct")
        return std::make_unique<IdctKernel>();
    if (name == "fdct")
        return std::make_unique<FdctKernel>();
    if (name == "motion1")
        return std::make_unique<Motion1Kernel>();
    if (name == "motion2")
        return std::make_unique<Motion2Kernel>();
    if (name == "comp")
        return std::make_unique<CompKernel>();
    if (name == "addblock")
        return std::make_unique<AddblockKernel>();
    if (name == "rgb")
        return std::make_unique<RgbKernel>();
    if (name == "ycc")
        return std::make_unique<YccKernel>();
    if (name == "h2v2")
        return std::make_unique<H2v2Kernel>();
    if (name == "ltppar")
        return std::make_unique<LtpparKernel>();
    if (name == "ltpfilt")
        return std::make_unique<LtpfiltKernel>();
    fatal("unknown kernel '%s'", name.c_str());
}

} // namespace vmmx
