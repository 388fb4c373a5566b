/**
 * @file
 * Mini JPEG encoder / decoder applications.
 *
 * jpegenc: interleaved RGB -> planar YCC (rgb kernel, vectorised),
 * 4:2:0 chroma downsample (scalar), per-block forward DCT (fdct kernel,
 * vectorised), flat quantisation, zig-zag and run-length/VLC bit coding
 * (scalar).
 *
 * jpegdec: entropy decode + dequant + scalar IDCT (the paper's jpegdec
 * only vectorises h2v2 and ycc -- Table II), h2v2 chroma up-sampling
 * (vectorised), YCC -> RGB (ycc kernel, vectorised).
 */

#ifndef VMMX_APPS_JPEG_HH
#define VMMX_APPS_JPEG_HH

#include "apps/app.hh"

namespace vmmx
{

struct JpegLayout
{
    static constexpr unsigned kW = 64;
    static constexpr unsigned kH = 64;
    static constexpr unsigned kPixels = kW * kH;
    static constexpr unsigned kCW = kW / 2; // chroma
    static constexpr unsigned kCH = kH / 2;

    Addr rgbIn = 0;
    Addr yPlane = 0, cbFull = 0, crFull = 0;
    Addr cbSmall = 0, crSmall = 0;
    Addr block = 0, block2 = 0;
    Addr stream = 0, streamLen = 0;

    // Decoder side.
    Addr dY = 0;
    Addr dCbBase = 0, dCrBase = 0; // padded planes for h2v2
    Addr dCbFull = 0, dCrFull = 0;
    Addr dR = 0, dG = 0, dB = 0;

    static constexpr unsigned kCPitch = kCW + 32;

    void alloc(MemImage &mem);
};

class JpegEnc : public App
{
  public:
    std::string name() const override { return "jpegenc"; }
    void prepare(MemImage &mem, Rng &rng) override;
    void emit(Program &p) override;
    u64 checksum(const MemImage &mem) const override;

    const JpegLayout &layout() const { return lay_; }

  private:
    JpegLayout lay_;
};

class JpegDec : public App
{
  public:
    std::string name() const override { return "jpegdec"; }
    void prepare(MemImage &mem, Rng &rng) override;
    void emit(Program &p) override;
    u64 checksum(const MemImage &mem) const override;

    const JpegLayout &layout() const { return enc_.layout(); }

  private:
    JpegEnc enc_;
};

} // namespace vmmx

#endif // VMMX_APPS_JPEG_HH
