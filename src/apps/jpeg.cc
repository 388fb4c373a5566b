#include "apps/jpeg.hh"

#include <optional>

#include "apps/blockcode.hh"

#include "apps/bitstream.hh"
#include "kernels/kops_color.hh"
#include "kernels/kops_dct.hh"
#include "kernels/kops_resample.hh"

namespace vmmx
{

namespace
{

using namespace kops;
using namespace blockcode;


} // namespace

void
JpegLayout::alloc(MemImage &mem)
{
    rgbIn = mem.alloc(3 * kPixels + 64);
    yPlane = mem.alloc(kPixels + 64);
    cbFull = mem.alloc(kPixels + 64);
    crFull = mem.alloc(kPixels + 64);
    cbSmall = mem.alloc(kCW * kCH + 64);
    crSmall = mem.alloc(kCW * kCH + 64);
    block = mem.alloc(256);
    block2 = mem.alloc(256);
    stream = mem.alloc(64 * 1024);
    streamLen = mem.alloc(8);

    dY = mem.alloc(kPixels + 64);
    dCbBase = mem.alloc(kCPitch * (kCH + 2) + 64);
    dCrBase = mem.alloc(kCPitch * (kCH + 2) + 64);
    dCbFull = mem.alloc(kPixels + 64);
    dCrFull = mem.alloc(kPixels + 64);
    dR = mem.alloc(kPixels + 64);
    dG = mem.alloc(kPixels + 64);
    dB = mem.alloc(kPixels + 64);
}

void
JpegEnc::prepare(MemImage &mem, Rng &rng)
{
    lay_.alloc(mem);
    // Smooth gradient + mild noise keeps quantisation error small so
    // the decode round-trip bound is meaningful.
    for (unsigned y = 0; y < JpegLayout::kH; ++y) {
        for (unsigned x = 0; x < JpegLayout::kW; ++x) {
            Addr px = lay_.rgbIn + 3 * (y * JpegLayout::kW + x);
            mem.write8(px + 0, u8(2 * x + rng.below(8)));
            mem.write8(px + 1, u8(2 * y + rng.below(8)));
            mem.write8(px + 2, u8(x + y + rng.below(8)));
        }
    }
}

void
JpegEnc::emit(Program &p)
{
    const JpegLayout &L = lay_;
    auto f = p.mark();

    // Phase 1: colour conversion (vectorised).
    {
        VectorRegion vr(p);
        SReg s = p.sreg();
        SReg y = p.sreg();
        SReg cb = p.sreg();
        SReg cr = p.sreg();
        p.li(s, L.rgbIn);
        p.li(y, L.yPlane);
        p.li(cb, L.cbFull);
        p.li(cr, L.crFull);
        if (p.matrix()) {
            Vmmx v(p);
            rgb2YccVmmx(p, v, s, y, cb, cr, JpegLayout::kPixels);
        } else {
            Mmx m(p);
            rgb2YccMmx(p, m, s, y, cb, cr, JpegLayout::kPixels);
        }
    }

    // Phase 2: 4:2:0 chroma downsample (scalar).
    {
        auto f2 = p.mark();
        SReg s0 = p.sreg();
        SReg d = p.sreg();
        SReg a = p.sreg();
        SReg b = p.sreg();
        SReg t = p.sreg();
        for (Addr pair : {Addr(0), Addr(1)}) {
            Addr full = pair == 0 ? L.cbFull : L.crFull;
            Addr small = pair == 0 ? L.cbSmall : L.crSmall;
            p.forLoop(JpegLayout::kCH, [&](SReg r) {
                p.muli(s0, r, 2 * JpegLayout::kW);
                p.addi(s0, s0, s64(full));
                p.muli(d, r, JpegLayout::kCW);
                p.addi(d, d, s64(small));
                p.forLoop(JpegLayout::kCW, [&](SReg c) {
                    p.slli(t, c, 1);
                    p.add(t, t, s0);
                    p.load(a, t, 0, 1);
                    p.load(b, t, 1, 1);
                    p.add(a, a, b);
                    p.load(b, t, JpegLayout::kW, 1);
                    p.add(a, a, b);
                    p.load(b, t, JpegLayout::kW + 1, 1);
                    p.add(a, a, b);
                    p.addi(a, a, 2);
                    p.srli(a, a, 2);
                    p.add(t, d, c);
                    p.store(a, t, 0, 1);
                });
            });
        }
        p.release(f2);
    }

    // Phase 3: per-block transform + entropy coding.  The matrix
    // flavours keep the coefficient matrices register-resident across
    // every block of every plane.
    DctTables tabs = prepareDctTables(p);
    DslBitWriter bw(p, L.stream);
    std::optional<Mmx> mm;
    std::optional<Vmmx> vm;
    VmmxDctCtx ctx;
    {
        VectorRegion vr(p);
        if (p.matrix()) {
            vm.emplace(p);
            ctx = dctVmmxLoadTables(p, *vm, tabs, true);
        } else {
            mm.emplace(p);
        }
    }
    auto doPlane = [&](Addr plane, unsigned pw, unsigned ph) {
        for (unsigned by = 0; by < ph / 8; ++by) {
            for (unsigned bx = 0; bx < pw / 8; ++bx) {
                extractBlock(p, plane, pw, bx, by, L.block);
                {
                    VectorRegion vr(p);
                    auto f3 = p.mark();
                    SReg i = p.sreg();
                    SReg o = p.sreg();
                    p.li(i, L.block);
                    p.li(o, L.block2);
                    if (p.matrix())
                        dctVmmxBlock(p, *vm, tabs, ctx, i, o);
                    else
                        dctMmx(p, *mm, tabs, i, o, true);
                    p.release(f3);
                }
                codeBlock(p, bw, L.block2);
            }
        }
    };
    doPlane(L.yPlane, JpegLayout::kW, JpegLayout::kH);
    doPlane(L.cbSmall, JpegLayout::kCW, JpegLayout::kCH);
    doPlane(L.crSmall, JpegLayout::kCW, JpegLayout::kCH);
    bw.flush();

    auto f4 = p.mark();
    SReg len = p.sreg();
    SReg la = p.sreg();
    p.li(len, bw.bytesWritten());
    p.li(la, L.streamLen);
    p.store(len, la, 0, 8);
    p.release(f4);
    p.release(f);
}

u64
JpegEnc::checksum(const MemImage &mem) const
{
    u64 n = mem.read64(lay_.streamLen);
    u64 h = 1469598103934665603ull;
    return hashRange(mem, lay_.stream, size_t(n), h) ^ n;
}

u64
App::hashRange(const MemImage &mem, Addr a, size_t n, u64 h)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= mem.read8(a + i);
        h *= 1099511628211ull;
    }
    return h;
}

void
JpegDec::prepare(MemImage &mem, Rng &rng)
{
    enc_.prepare(mem, rng);
    // Produce the input bitstream by running the encoder functionally.
    Program tmp(mem, SimdKind::MMX64, discardSink());
    enc_.emit(tmp);
}

void
JpegDec::emit(Program &p)
{
    const JpegLayout &L = enc_.layout();
    auto f = p.mark();

    // Phase 1: entropy decode + dequant + scalar IDCT per block (the
    // paper's jpegdec vectorises only h2v2 and ycc).
    DctTables tabs = prepareDctTables(p);
    DslBitReader br(p, L.stream);
    Addr cbInterior = L.dCbBase + JpegLayout::kCPitch + 1;
    Addr crInterior = L.dCrBase + JpegLayout::kCPitch + 1;
    auto doPlane = [&](Addr plane, unsigned pitch, unsigned pw,
                       unsigned ph) {
        for (unsigned by = 0; by < ph / 8; ++by) {
            for (unsigned bx = 0; bx < pw / 8; ++bx) {
                parseBlock(p, br, L.block);
                {
                    auto f3 = p.mark();
                    SReg i = p.sreg();
                    SReg o = p.sreg();
                    p.li(i, L.block);
                    p.li(o, L.block2);
                    dctScalar(p, tabs, i, o, false);
                    p.release(f3);
                }
                depositBlock(p, L.block2, plane, pitch, bx, by);
            }
        }
    };
    doPlane(L.dY, JpegLayout::kW, JpegLayout::kW, JpegLayout::kH);
    doPlane(cbInterior, JpegLayout::kCPitch, JpegLayout::kCW,
            JpegLayout::kCH);
    doPlane(crInterior, JpegLayout::kCPitch, JpegLayout::kCW,
            JpegLayout::kCH);

    // Phase 2: replicate chroma borders (scalar) for the up-sampler.
    {
        auto f2 = p.mark();
        SReg v = p.sreg();
        SReg s = p.sreg();
        SReg d = p.sreg();
        for (Addr interior : {cbInterior, crInterior}) {
            unsigned pitch = JpegLayout::kCPitch;
            unsigned cw = JpegLayout::kCW;
            unsigned ch = JpegLayout::kCH;
            p.forLoop(ch, [&](SReg r) {
                p.muli(s, r, pitch);
                p.addi(s, s, s64(interior));
                p.load(v, s, 0, 1);
                p.store(v, s, -1, 1);
                p.load(v, s, s64(cw) - 1, 1);
                for (unsigned e = 0; e < 17; ++e)
                    p.store(v, s, s64(cw + e), 1);
            });
            p.forLoop(pitch, [&](SReg c) {
                p.li(s, interior - 1);
                p.add(s, s, c);
                p.load(v, s, 0, 1);
                p.store(v, s, -s64(pitch), 1);
                p.li(d, interior + (ch - 1) * pitch - 1);
                p.add(d, d, c);
                p.load(v, d, 0, 1);
                p.store(v, d, s64(pitch), 1);
            });
        }
        p.release(f2);
    }

    // Phase 3: h2v2 chroma up-sampling (vectorised).
    {
        VectorRegion vr(p);
        auto f3 = p.mark();
        SReg s = p.sreg();
        SReg d = p.sreg();
        for (int c = 0; c < 2; ++c) {
            p.li(s, c == 0 ? cbInterior : crInterior);
            p.li(d, c == 0 ? L.dCbFull : L.dCrFull);
            if (p.matrix()) {
                Vmmx v(p);
                h2v2Vmmx(p, v, s, JpegLayout::kCPitch, d, JpegLayout::kW,
                         JpegLayout::kCW, JpegLayout::kCH);
            } else {
                Mmx m(p);
                h2v2Mmx(p, m, s, JpegLayout::kCPitch, d, JpegLayout::kW,
                        JpegLayout::kCW, JpegLayout::kCH);
            }
        }
        p.release(f3);
    }

    // Phase 4: colour conversion (vectorised).
    {
        VectorRegion vr(p);
        auto f4 = p.mark();
        SReg y = p.sreg();
        SReg cb = p.sreg();
        SReg cr = p.sreg();
        SReg r = p.sreg();
        SReg g = p.sreg();
        SReg b = p.sreg();
        p.li(y, L.dY);
        p.li(cb, L.dCbFull);
        p.li(cr, L.dCrFull);
        p.li(r, L.dR);
        p.li(g, L.dG);
        p.li(b, L.dB);
        if (p.matrix()) {
            Vmmx v(p);
            ycc2RgbVmmx(p, v, y, cb, cr, r, g, b, JpegLayout::kPixels);
        } else {
            Mmx m(p);
            ycc2RgbMmx(p, m, y, cb, cr, r, g, b, JpegLayout::kPixels);
        }
        p.release(f4);
    }
    p.release(f);
}

u64
JpegDec::checksum(const MemImage &mem) const
{
    const JpegLayout &L = enc_.layout();
    u64 h = 1469598103934665603ull;
    h = hashRange(mem, L.dR, JpegLayout::kPixels, h);
    h = hashRange(mem, L.dG, JpegLayout::kPixels, h);
    h = hashRange(mem, L.dB, JpegLayout::kPixels, h);
    return h;
}

} // namespace vmmx
