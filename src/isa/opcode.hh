/**
 * @file
 * Opcode set of the modelled machine: a MIPS/Alpha-like scalar core plus
 * the packed-SIMD operation repertoire shared by the 1-D (MMX-style) and
 * 2-D (MOM-style) extensions.
 *
 * The timing simulator is trace driven: functional semantics live in the
 * emulation library (src/emu) and are applied while the trace is built, so
 * opcodes here carry only what timing and statistics need -- instruction
 * class, functional-unit type, latency and a printable name.
 *
 * Packed opcodes are element-width agnostic; the InstRecord carries an
 * ElemWidth.  1-D and 2-D flavours share packed opcodes: a record with
 * vl == 0 is a single-word (1-D) operation, vl >= 1 is a matrix operation
 * over that many register rows.
 */

#ifndef VMMX_ISA_OPCODE_HH
#define VMMX_ISA_OPCODE_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace vmmx
{

/** Dynamic-instruction classes as used in the paper's Figure 7. */
enum class InstClass : u8
{
    SMEM,   ///< scalar memory
    SARITH, ///< scalar arithmetic (incl. FP)
    SCTRL,  ///< control (branches, jumps, calls)
    VMEM,   ///< SIMD/vector memory
    VARITH, ///< SIMD/vector arithmetic
};

constexpr unsigned numInstClasses = 5;

const char *instClassName(InstClass c);

/** Functional-unit families (Table III resources). */
enum class FuType : u8
{
    IntAlu,
    IntMul,
    Fp,
    Simd,   ///< SIMD/vector execution unit
    Mem,    ///< address generation + cache port
    None,   ///< zero-latency bookkeeping (e.g. setvl folds into rename)
};

/** Packed element width. */
enum class ElemWidth : u8 { B8 = 0, W16, D32, Q64 };

/** @return element size in bytes. */
inline unsigned
elemBytes(ElemWidth w)
{
    return 1u << static_cast<unsigned>(w);
}

enum class Opcode : u8
{
    // ---- scalar integer ----
    NOP,
    LI,    ///< load immediate
    MOV,
    ADD,
    SUB,
    MUL,
    DIV,
    AND,
    OR,
    XOR,
    SLL,
    SRL,
    SRA,
    SLT,
    // ---- scalar floating point ----
    FADD,
    FMUL,
    FDIV,
    // ---- scalar memory ----
    LOAD,  ///< 1/2/4/8-byte scalar load (size in record)
    STORE,
    // ---- control ----
    BR,    ///< conditional branch (outcome in record)
    JMP,   ///< unconditional jump
    CALL,
    RET,
    // ---- packed SIMD arithmetic (1-D word or 2-D matrix) ----
    PADD,   ///< wrapping packed add
    PADDS,  ///< saturating packed add
    PSUB,
    PSUBS,
    PMULL,  ///< packed multiply, low half
    PMULH,  ///< packed multiply, high half
    PMADD,  ///< pmaddwd-style 16->32 multiply + pairwise add
    PSAD,   ///< sum of absolute differences (u8) -> 64-bit lanes
    PAVG,
    PMIN,
    PMAX,
    PAND,
    POR,
    PXOR,
    PSLL,
    PSRL,
    PSRA,
    PACKS,  ///< narrow with signed saturation
    PACKUS, ///< narrow with unsigned saturation
    UNPCKL, ///< interleave low elements
    UNPCKH, ///< interleave high elements
    PSHUF,  ///< element permute within a word
    PSPLAT, ///< broadcast scalar into all elements
    PMOVD,  ///< move scalar reg <-> SIMD element 0
    PSUM,   ///< horizontal reduce of one packed word -> scalar reg
    // ---- matrix-only (MOM) operations ----
    VSETVL,  ///< set vector length (folds into decode; FuType::None)
    VMACC,   ///< packed multiply-accumulate into a wide accumulator
    VSADA,   ///< SAD of two matrix rows accumulated into accumulator
    VADDA,   ///< packed add of rows into accumulator columns
    VACCSUM, ///< reduce an accumulator to a scalar register
    VACCCLR, ///< clear accumulator
    VACCPACK,///< pack/saturate an accumulator back into a matrix register
    VTRANSP, ///< in-register matrix transpose (lane exchange network)
    // ---- memory, packed / matrix ----
    PLOAD,   ///< 1-D packed load (one row)
    PSTORE,
    VLOAD,   ///< matrix load, unit-stride or strided (vl rows)
    VSTORE,
    VLOADP,  ///< partial matrix load (SSE2/SSE3-style partial movement)
    VSTOREP,
    NUM_OPCODES,
};

/** Static properties of an opcode. */
struct OpTraits
{
    InstClass cls;
    FuType fu;
    u8 latency;       ///< execution latency in cycles (post-issue)
    const char *name; ///< mnemonic for disassembly
};

/** One row per opcode, in Opcode order (isa/opcode.cc). */
extern const OpTraits opTable[size_t(Opcode::NUM_OPCODES)];

/** @return the traits row for @p op. */
inline const OpTraits &
traits(Opcode op)
{
    auto idx = static_cast<size_t>(op);
    vmmx_assert(idx < size_t(Opcode::NUM_OPCODES), "opcode out of range");
    return opTable[idx];
}

inline const char *
opcodeName(Opcode op)
{
    return traits(op).name;
}

} // namespace vmmx

#endif // VMMX_ISA_OPCODE_HH
