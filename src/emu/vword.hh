/**
 * @file
 * VWord: one packed register row of up to 128 bits, plus the matrix
 * register type (up to 16 rows).  Element accessors are little-endian.
 */

#ifndef VMMX_EMU_VWORD_HH
#define VMMX_EMU_VWORD_HH

#include <array>
#include <cstring>

#include "common/logging.hh"
#include "common/types.hh"

namespace vmmx
{

/** One packed word; the 1-D flavours use 8 or 16 of its bytes. */
struct VWord
{
    u64 lo = 0;
    u64 hi = 0;

    bool operator==(const VWord &o) const = default;

    u8
    byte(unsigned i) const
    {
        vmmx_assert(i < 16, "byte index");
        u64 w = i < 8 ? lo : hi;
        return u8(w >> (8 * (i % 8)));
    }

    u16
    word(unsigned i) const
    {
        vmmx_assert(i < 8, "word index");
        u64 w = i < 4 ? lo : hi;
        return u16(w >> (16 * (i % 4)));
    }

    void
    setWord(unsigned i, u16 v)
    {
        vmmx_assert(i < 8, "word index");
        u64 &w = i < 4 ? lo : hi;
        unsigned sh = 16 * (i % 4);
        w = (w & ~(u64(0xffff) << sh)) | (u64(v) << sh);
    }

    u32
    dword(unsigned i) const
    {
        vmmx_assert(i < 4, "dword index");
        u64 w = i < 2 ? lo : hi;
        return u32(w >> (32 * (i % 2)));
    }

    void
    setDword(unsigned i, u32 v)
    {
        vmmx_assert(i < 4, "dword index");
        u64 &w = i < 2 ? lo : hi;
        unsigned sh = 32 * (i % 2);
        w = (w & ~(u64(0xffffffff) << sh)) | (u64(v) << sh);
    }

    u64 qword(unsigned i) const { return i == 0 ? lo : hi; }

    void
    setQword(unsigned i, u64 v)
    {
        (i == 0 ? lo : hi) = v;
    }

    s16 sword(unsigned i) const { return s16(word(i)); }
    s32 sdword(unsigned i) const { return s32(dword(i)); }
};

/** Maximum matrix register depth (MOM vector length). */
constexpr unsigned maxMatrixRows = 16;

/** A matrix register: up to 16 packed rows. */
using MatrixReg = std::array<VWord, maxMatrixRows>;

} // namespace vmmx

#endif // VMMX_EMU_VWORD_HH
