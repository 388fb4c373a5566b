/**
 * @file
 * Mini GSM 06.10-style RPE-LTP speech codec applications.
 *
 * gsmenc: preemphasis, autocorrelation, lattice short-term analysis
 * (all scalar), per-subframe LTP lag search (ltppar, vectorised), RPE
 * quantisation and bit packing (scalar).
 *
 * gsmdec: bit parsing (scalar), long-term synthesis (ltpfilt,
 * vectorised), lattice short-term synthesis and deemphasis (scalar).
 *
 * Frames are 3 subframes x 40 samples = 120 samples (Table II's
 * "120 16-bit" granularity).  Less than ~10 % of the dynamic work is
 * vectorisable, matching the paper's observation for the GSM pair.
 */

#ifndef VMMX_APPS_GSM_HH
#define VMMX_APPS_GSM_HH

#include "apps/app.hh"

namespace vmmx
{

struct GsmLayout
{
    static constexpr unsigned kFrame = 120;
    static constexpr unsigned kFrames = 4;
    static constexpr unsigned kTotal = kFrame * kFrames;

    Addr input = 0;     ///< kTotal s16 source samples
    Addr spre = 0;      ///< preemphasised frame
    Addr resid = 0;     ///< short-term residual frame
    Addr hist = 0;      ///< 240 s16 rolling LTP history (encoder)
    Addr dHist = 0;     ///< 240 s16 rolling history (decoder)
    Addr erp = 0;       ///< decoded excitation frame
    Addr nc = 0, bc = 0;
    Addr output = 0;    ///< kTotal s16 decoded samples
    Addr stream = 0, streamLen = 0;

    void alloc(MemImage &mem);
};

class GsmEnc : public App
{
  public:
    std::string name() const override { return "gsmenc"; }
    void prepare(MemImage &mem, Rng &rng) override;
    void emit(Program &p) override;
    u64 checksum(const MemImage &mem) const override;

    const GsmLayout &layout() const { return lay_; }

  private:
    GsmLayout lay_;
};

class GsmDec : public App
{
  public:
    std::string name() const override { return "gsmdec"; }
    void prepare(MemImage &mem, Rng &rng) override;
    void emit(Program &p) override;
    u64 checksum(const MemImage &mem) const override;

    const GsmLayout &layout() const { return enc_.layout(); }

  private:
    GsmEnc enc_;
};

} // namespace vmmx

#endif // VMMX_APPS_GSM_HH
