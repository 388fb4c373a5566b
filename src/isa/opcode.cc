#include "isa/opcode.hh"

#include "common/logging.hh"

namespace vmmx
{

namespace
{

constexpr auto C_SMEM = InstClass::SMEM;
constexpr auto C_SAR = InstClass::SARITH;
constexpr auto C_CTL = InstClass::SCTRL;
constexpr auto C_VMEM = InstClass::VMEM;
constexpr auto C_VAR = InstClass::VARITH;

constexpr auto F_ALU = FuType::IntAlu;
constexpr auto F_MUL = FuType::IntMul;
constexpr auto F_FP = FuType::Fp;
constexpr auto F_SIMD = FuType::Simd;
constexpr auto F_MEM = FuType::Mem;
constexpr auto F_NONE = FuType::None;

} // namespace

const OpTraits opTable[size_t(Opcode::NUM_OPCODES)] = {
    // cls     fu      lat  name
    {C_SAR, F_ALU, 1, "nop"},      // NOP
    {C_SAR, F_ALU, 1, "li"},       // LI
    {C_SAR, F_ALU, 1, "mov"},      // MOV
    {C_SAR, F_ALU, 1, "add"},      // ADD
    {C_SAR, F_ALU, 1, "sub"},      // SUB
    {C_SAR, F_MUL, 3, "mul"},      // MUL
    {C_SAR, F_MUL, 12, "div"},     // DIV
    {C_SAR, F_ALU, 1, "and"},      // AND
    {C_SAR, F_ALU, 1, "or"},       // OR
    {C_SAR, F_ALU, 1, "xor"},      // XOR
    {C_SAR, F_ALU, 1, "sll"},      // SLL
    {C_SAR, F_ALU, 1, "srl"},      // SRL
    {C_SAR, F_ALU, 1, "sra"},      // SRA
    {C_SAR, F_ALU, 1, "slt"},      // SLT
    {C_SAR, F_FP, 4, "fadd"},      // FADD
    {C_SAR, F_FP, 4, "fmul"},      // FMUL
    {C_SAR, F_FP, 12, "fdiv"},     // FDIV
    {C_SMEM, F_MEM, 1, "load"},    // LOAD (plus cache time)
    {C_SMEM, F_MEM, 1, "store"},   // STORE
    {C_CTL, F_ALU, 1, "br"},       // BR
    {C_CTL, F_ALU, 1, "jmp"},      // JMP
    {C_CTL, F_ALU, 1, "call"},     // CALL
    {C_CTL, F_ALU, 1, "ret"},      // RET
    {C_VAR, F_SIMD, 1, "padd"},    // PADD
    {C_VAR, F_SIMD, 1, "padds"},   // PADDS
    {C_VAR, F_SIMD, 1, "psub"},    // PSUB
    {C_VAR, F_SIMD, 1, "psubs"},   // PSUBS
    {C_VAR, F_SIMD, 3, "pmull"},   // PMULL
    {C_VAR, F_SIMD, 3, "pmulh"},   // PMULH
    {C_VAR, F_SIMD, 3, "pmadd"},   // PMADD
    {C_VAR, F_SIMD, 3, "psad"},    // PSAD
    {C_VAR, F_SIMD, 1, "pavg"},    // PAVG
    {C_VAR, F_SIMD, 1, "pmin"},    // PMIN
    {C_VAR, F_SIMD, 1, "pmax"},    // PMAX
    {C_VAR, F_SIMD, 1, "pand"},    // PAND
    {C_VAR, F_SIMD, 1, "por"},     // POR
    {C_VAR, F_SIMD, 1, "pxor"},    // PXOR
    {C_VAR, F_SIMD, 1, "psll"},    // PSLL
    {C_VAR, F_SIMD, 1, "psrl"},    // PSRL
    {C_VAR, F_SIMD, 1, "psra"},    // PSRA
    {C_VAR, F_SIMD, 1, "packs"},   // PACKS
    {C_VAR, F_SIMD, 1, "packus"},  // PACKUS
    {C_VAR, F_SIMD, 1, "unpckl"},  // UNPCKL
    {C_VAR, F_SIMD, 1, "unpckh"},  // UNPCKH
    {C_VAR, F_SIMD, 1, "pshuf"},   // PSHUF
    {C_VAR, F_SIMD, 1, "psplat"},  // PSPLAT
    {C_VAR, F_SIMD, 1, "pmovd"},   // PMOVD
    {C_VAR, F_SIMD, 2, "psum"},    // PSUM
    {C_SAR, F_NONE, 0, "vsetvl"},  // VSETVL
    {C_VAR, F_SIMD, 3, "vmacc"},   // VMACC
    {C_VAR, F_SIMD, 3, "vsada"},   // VSADA
    {C_VAR, F_SIMD, 1, "vadda"},   // VADDA
    {C_VAR, F_SIMD, 2, "vaccsum"}, // VACCSUM
    {C_VAR, F_SIMD, 1, "vaccclr"}, // VACCCLR
    {C_VAR, F_SIMD, 1, "vaccpack"},// VACCPACK
    {C_VAR, F_SIMD, 1, "vtransp"}, // VTRANSP (occupancy dominates)
    {C_VMEM, F_MEM, 1, "pload"},   // PLOAD
    {C_VMEM, F_MEM, 1, "pstore"},  // PSTORE
    {C_VMEM, F_MEM, 1, "vload"},   // VLOAD
    {C_VMEM, F_MEM, 1, "vstore"},  // VSTORE
    {C_VMEM, F_MEM, 1, "vloadp"},  // VLOADP
    {C_VMEM, F_MEM, 1, "vstorep"}, // VSTOREP
};

namespace
{

const char *classNames[numInstClasses] = {
    "smem", "sarith", "sctrl", "vmem", "varith",
};

} // namespace

const char *
instClassName(InstClass c)
{
    auto idx = static_cast<size_t>(c);
    vmmx_assert(idx < numInstClasses, "inst class out of range");
    return classNames[idx];
}

} // namespace vmmx
