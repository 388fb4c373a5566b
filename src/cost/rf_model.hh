/**
 * @file
 * Register-file storage / complexity / area model (paper Table I).
 *
 * Follows the register-organisation model of Rixner et al. (HPCA 2000):
 * the area of a storage cell grows with the product of its wordlines and
 * bitlines, i.e. quadratically in the number of ports wired to the cell,
 * so a register file of N bits with r read and w write ports per bank
 * costs N * (r + w)^2 area units.  Banking a lane-partitioned vector
 * register file keeps the per-bank port count constant, which is exactly
 * why the matrix register file scales gently (paper section II-C).
 *
 * The paper itself stresses the model is approximate -- "useful to give
 * upper bounds and determine trends".
 */

#ifndef VMMX_COST_RF_MODEL_HH
#define VMMX_COST_RF_MODEL_HH

#include "isa/simd_kind.hh"

namespace vmmx
{

struct RfDesign
{
    SimdKind kind;
    unsigned way;

    unsigned physRegs;       ///< physical SIMD/matrix registers
    unsigned rowBits;        ///< bits per register row
    unsigned rows;           ///< rows per register (1 or 16)
    unsigned lanes;          ///< vector lanes (1 for the 1-D flavours)
    unsigned banksPerLane;
    unsigned readPortsPerBank;
    unsigned writePortsPerBank;

    /** Total storage in decimal kilobytes (paper uses KB = 1000 B). */
    double storageKB() const;

    /** Total bits of storage. */
    u64 storageBits() const;

    /** Area in cell units: bits x (r + w)^2 summed over banks. */
    double areaUnits() const;

    /** Table I design point for @p kind at @p way, sized from the
     *  Table III resources of CoreParams::forConfig(kind, way). */
    static RfDesign forMachine(SimdKind kind, unsigned way);
};

/** Area of @p d normalised to the 4-way MMX64 design (Table I). */
double normalizedArea(const RfDesign &d);

} // namespace vmmx

#endif // VMMX_COST_RF_MODEL_HH
