/**
 * @file
 * 8x8 forward / inverse DCT (Table II: fdct, idct), implemented as two
 * matrix products with Q14 fixed-point coefficients so that all five
 * flavours are bit-exact:
 *
 *   pass(A)  = round14(M^T A)        round14(x) = (x + 8192) >> 14
 *   out      = pass(pass(X)^T)^T     M = CQ for idct, CQ^T for fdct
 *
 * The MMX versions interleave row pairs and use pmaddwd against
 * pair-splatted coefficient patterns (the classic MMX DCT recipe); the
 * matrix versions keep the whole block and the coefficient splat
 * matrices in registers and reduce through packed accumulators --
 * "using vector registers as a cache", which the paper credits for
 * idct's largest speed-up.
 */

#ifndef VMMX_KERNELS_KOPS_DCT_HH
#define VMMX_KERNELS_KOPS_DCT_HH

#include "trace/mmx.hh"
#include "trace/program.hh"
#include "trace/vmmx.hh"

namespace vmmx::kops
{

/** Q14 DCT-II coefficient matrix entry (|value| <= 8192). */
s16 dctCoef(unsigned i, unsigned j);

/** Constant tables + scratch, stashed once per Program. */
struct DctTables
{
    /** pmaddwd pair-splat patterns, [forward][row i][pair t]. */
    Addr pairTable[2];
    /** Matrix splat tables, [forward][row i] -> 8 rows x 16 bytes. */
    Addr splatTable[2];
    /** 512-byte scratch for intermediate/spilled rows. */
    Addr scratch;
};

DctTables prepareDctTables(Program &p);

/** Golden transform of one 8x8 s16 block (in/out may alias). */
void goldenDct8x8(MemImage &mem, Addr in, Addr out, bool forward);

void dctScalar(Program &p, const DctTables &t, SReg in, SReg out,
               bool forward);
void dctMmx(Program &p, Mmx &m, const DctTables &t, SReg in, SReg out,
            bool forward);

/**
 * Matrix-flavour coefficient residency: the eight splat matrices are
 * loaded once and stay in registers across every block of a batch --
 * the paper's "vector registers as a cache" optimisation, responsible
 * for idct's largest speed-up.
 */
struct VmmxDctCtx
{
    std::array<VR, 8> tbl{};
};

/** Load the splat matrices for @p forward into fresh registers. */
VmmxDctCtx dctVmmxLoadTables(Program &p, Vmmx &v, const DctTables &t,
                             bool forward);

/** Transform one block using resident tables. */
void dctVmmxBlock(Program &p, Vmmx &v, const DctTables &t,
                  const VmmxDctCtx &ctx, SReg in, SReg out);

} // namespace vmmx::kops

#endif // VMMX_KERNELS_KOPS_DCT_HH
