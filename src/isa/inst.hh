/**
 * @file
 * Dynamic instruction record -- the unit the trace DSL emits and the
 * timing simulator consumes.
 */

#ifndef VMMX_ISA_INST_HH
#define VMMX_ISA_INST_HH

#include <string>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace vmmx
{

/** Register classes renamed independently by the core. */
enum class RegClass : u8
{
    Int,  ///< scalar integer
    Fp,   ///< scalar floating point
    Simd, ///< packed / matrix registers
    Acc,  ///< MOM packed accumulators
    None, ///< no register
};

constexpr unsigned numRegClasses = 4;

/** A logical register identifier. */
struct RegId
{
    RegClass cls = RegClass::None;
    u8 idx = 0;

    bool valid() const { return cls != RegClass::None; }
    bool operator==(const RegId &o) const = default;
};

inline RegId intReg(u8 i) { return {RegClass::Int, i}; }
inline RegId simdReg(u8 i) { return {RegClass::Simd, i}; }
inline RegId accReg(u8 i) { return {RegClass::Acc, i}; }

/**
 * One dynamic instruction.
 *
 * Memory operations carry their resolved effective address (the trace is
 * execution driven, so addresses and branch outcomes are exact).  Matrix
 * operations carry the active vector length in rows and, for memory, the
 * byte stride between consecutive rows.
 */
struct InstRecord
{
    Opcode op = Opcode::NOP;
    ElemWidth ew = ElemWidth::B8;

    RegId dst;
    RegId src0;
    RegId src1;
    RegId src2;

    /** Memory: resolved effective address of the first byte. */
    Addr addr = 0;
    /** Memory: bytes per row (scalar access size, or packed row size). */
    u16 rowBytes = 0;
    /** Memory: byte stride between rows; == rowBytes when unit-stride. */
    s32 stride = 0;
    /** Vector length in rows; 0 for scalar and 1-D SIMD operations. */
    u16 vl = 0;

    /** Branches: resolved direction. */
    bool taken = false;
    /** Static instruction site (for the branch predictor / footprint). */
    u32 staticId = 0;
    /** Region tag: 0 = scalar code, nonzero = vectorised kernel region. */
    u16 region = 0;

    const OpTraits &info() const { return traits(op); }
    InstClass cls() const { return info().cls; }
    bool isMem() const { return info().fu == FuType::Mem; }
    bool isLoad() const
    {
        return op == Opcode::LOAD || op == Opcode::PLOAD ||
               op == Opcode::VLOAD || op == Opcode::VLOADP;
    }
    bool isStore() const
    {
        return op == Opcode::STORE || op == Opcode::PSTORE ||
               op == Opcode::VSTORE || op == Opcode::VSTOREP;
    }
    bool isBranch() const { return cls() == InstClass::SCTRL; }
    bool isVector() const
    {
        InstClass c = cls();
        return c == InstClass::VMEM || c == InstClass::VARITH;
    }
    /** Rows processed: vl for matrix ops, 1 otherwise. */
    u16 rows() const { return vl ? vl : 1; }

    /** Bit-exact comparison (serialization round-trip checks). */
    bool operator==(const InstRecord &o) const = default;

    /** Human-readable rendering for debugging. */
    std::string toString() const;
};

} // namespace vmmx

#endif // VMMX_ISA_INST_HH
