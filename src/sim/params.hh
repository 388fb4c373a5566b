/**
 * @file
 * Core (pipeline) parameters -- paper Table III.
 *
 * The baseline is a MIPS R10000-like out-of-order superscalar scaled to
 * 2/4/8-way.  The MMX flavours add `way` SIMD functional units fed by a
 * centralized SIMD register file; the VMMX flavours add 1/2/3 vector
 * units of 4 lanes each fed by a lane-distributed matrix register file.
 */

#ifndef VMMX_SIM_PARAMS_HH
#define VMMX_SIM_PARAMS_HH

#include "common/config.hh"
#include "isa/simd_kind.hh"

namespace vmmx
{

struct CoreParams
{
    SimdKind kind = SimdKind::MMX64;
    unsigned way = 2;          ///< fetch = decode = graduate width

    unsigned intFus = 2;       ///< integer ALUs (Table III)
    unsigned fpFus = 1;        ///< floating-point units
    unsigned simdFus = 2;      ///< SIMD/vector execution units
    unsigned lanesPerFu = 1;   ///< 4 for the matrix flavours
    unsigned simdIssue = 2;    ///< SIMD instructions issued per cycle
    unsigned memPorts = 1;     ///< scalar L1 ports (= Mem FUs)

    unsigned physInt = 40;
    unsigned physFp = 32;
    unsigned physSimd = 40;    ///< Table III "Physical SIMD registers"
    unsigned physAcc = 8;      ///< packed accumulators (VMMX only)
    unsigned logicalInt = 32;
    unsigned logicalFp = 32;
    unsigned logicalSimd = 32; ///< 32 for MMX, 16 for VMMX
    unsigned logicalAcc = 4;

    unsigned robSize = 32;
    unsigned iqSize = 16;

    unsigned frontDepth = 3;          ///< fetch-to-rename stages
    unsigned mispredictPenalty = 8;   ///< redirect cycles
    unsigned bpredEntries = 4096;     ///< gshare table entries
    unsigned storeWindow = 64;        ///< disambiguation window

    /**
     * Table III configuration for @p kind at @p way, with the overrides
     * of knobs() applied.
     */
    static CoreParams forConfig(SimdKind kind, unsigned way,
                                const Config &overrides = {});

    /** The core's override keys (README "Machine knobs"). */
    static std::span<const Knob<CoreParams>> knobs();
};

} // namespace vmmx

#endif // VMMX_SIM_PARAMS_HH
