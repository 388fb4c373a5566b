/**
 * @file
 * Mini MPEG-2 encoder / decoder applications (luma-only, I + P frame).
 *
 * mpeg2enc: full-search SAD motion estimation (motion1, vectorised) with
 * SQD refinement (motion2, vectorised), fdct/idct (vectorised), flat
 * quantisation, zig-zag VLC and reconstruction (scalar glue).
 *
 * mpeg2dec: VLC parsing and dequant (scalar), idct (vectorised),
 * half-pel motion compensation (comp, vectorised) and block
 * reconstruction (addblock, vectorised) -- Table II's kernel split.
 */

#ifndef VMMX_APPS_MPEG2_HH
#define VMMX_APPS_MPEG2_HH

#include "apps/app.hh"

namespace vmmx
{

struct Mpeg2Layout
{
    static constexpr unsigned kW = 64;
    static constexpr unsigned kH = 48;
    static constexpr unsigned kBorder = 16;
    static constexpr unsigned kPitch = kW + 2 * kBorder;
    static constexpr unsigned kFrameBytes = kPitch * (kH + 2 * kBorder);
    static constexpr unsigned kMbW = kW / 16;
    static constexpr unsigned kMbH = kH / 16;

    Addr cur0 = 0, cur1 = 0;   ///< source frames (interior origins)
    Addr recA = 0, recB = 0;   ///< encoder reconstructions
    Addr dRec0 = 0, dRec1 = 0; ///< decoder reconstructions
    Addr pred = 0;             ///< 16x16 prediction buffer
    Addr predArr = 0;          ///< per-MB prediction buffers (batched)
    Addr blockArr = 0;         ///< 48 coefficient/residual blocks
    Addr block = 0, block2 = 0;
    Addr const128 = 0;         ///< an 8-byte row of 128s
    Addr stream = 0, streamLen = 0;

    /** Interior origin helper: frames are border-padded. */
    static Addr
    interior(Addr base)
    {
        return base + kBorder * kPitch + kBorder;
    }

    void alloc(MemImage &mem);
};

class Mpeg2Enc : public App
{
  public:
    std::string name() const override { return "mpeg2enc"; }
    void prepare(MemImage &mem, Rng &rng) override;
    void emit(Program &p) override;
    u64 checksum(const MemImage &mem) const override;

    const Mpeg2Layout &layout() const { return lay_; }

  private:
    Mpeg2Layout lay_;
};

class Mpeg2Dec : public App
{
  public:
    std::string name() const override { return "mpeg2dec"; }
    void prepare(MemImage &mem, Rng &rng) override;
    void emit(Program &p) override;
    u64 checksum(const MemImage &mem) const override;

    const Mpeg2Layout &layout() const { return enc_.layout(); }

  private:
    Mpeg2Enc enc_;
};

} // namespace vmmx

#endif // VMMX_APPS_MPEG2_HH
