#include "cost/rf_model.hh"

#include "sim/params.hh"

namespace vmmx
{

u64
RfDesign::storageBits() const
{
    return u64(physRegs) * rows * rowBits;
}

double
RfDesign::storageKB() const
{
    return double(storageBits()) / 8.0 / 1000.0;
}

double
RfDesign::areaUnits() const
{
    double ports = double(readPortsPerBank + writePortsPerBank);
    // Bits are spread evenly over the banks; per-cell area grows with
    // (wordlines x bitlines) ~ ports^2.
    return double(storageBits()) * ports * ports;
}

RfDesign
RfDesign::forMachine(SimdKind kind, unsigned way)
{
    // Table III's SIMD resources (forConfig rejects widths other than
    // 2, 4 and 8).
    CoreParams core = CoreParams::forConfig(kind, way);
    const SimdGeometry &g = geometry(kind);

    RfDesign d;
    d.kind = kind;
    d.way = way;
    d.rowBits = g.rowBits;
    d.rows = g.maxVl;
    d.physRegs = core.physSimd;
    d.lanes = core.lanesPerFu;

    if (g.matrix) {
        // Table I: 1, 2 and 4 banks per lane at 2, 4 and 8-way.
        d.banksPerLane = way / 2;
        // Each bank feeds one functional unit per cycle (2 operand reads
        // + 1 result write), one memory stream read and one memory/
        // reduction write: the banked organisation keeps this constant
        // as the machine scales.
        d.readPortsPerBank = 4;
        d.writePortsPerBank = 2;
    } else {
        d.banksPerLane = 1;
        // Centralized file: every SIMD FU needs 2 reads + 1 write, plus
        // the memory ports.
        d.readPortsPerBank = 2 * core.simdFus + core.memPorts;
        d.writePortsPerBank = core.simdFus + core.memPorts;
    }
    return d;
}

double
normalizedArea(const RfDesign &d)
{
    static const double base =
        RfDesign::forMachine(SimdKind::MMX64, 4).areaUnits();
    return d.areaUnits() / base;
}

} // namespace vmmx
