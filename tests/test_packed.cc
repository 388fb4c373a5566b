/**
 * @file
 * Property tests for the packed-SIMD emulation: every operation is
 * checked element-wise against a scalar reference over randomized
 * operands, for both row widths and all element sizes.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/saturate.hh"
#include "emu/accum.hh"
#include "emu/packed.hh"

namespace vmmx
{
namespace
{

using namespace emu;

struct WidthCase
{
    unsigned bytes;
};

class PackedWidth : public testing::TestWithParam<unsigned>
{
  protected:
    VWord
    randomWord(Rng &rng)
    {
        return {rng.next(), rng.next()};
    }
};

TEST_P(PackedWidth, AddSubWrapB8)
{
    unsigned w = GetParam();
    Rng rng(1);
    for (int it = 0; it < 200; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord s = padd(a, b, ElemWidth::B8, w);
        VWord d = psub(a, b, ElemWidth::B8, w);
        for (unsigned i = 0; i < w; ++i) {
            EXPECT_EQ(s.byte(i), u8(a.byte(i) + b.byte(i)));
            EXPECT_EQ(d.byte(i), u8(a.byte(i) - b.byte(i)));
        }
    }
}

TEST_P(PackedWidth, SaturatingAddW16)
{
    unsigned w = GetParam();
    Rng rng(2);
    for (int it = 0; it < 200; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord s = padds(a, b, ElemWidth::W16, w, true);
        VWord u = padds(a, b, ElemWidth::W16, w, false);
        for (unsigned i = 0; i < w / 2; ++i) {
            EXPECT_EQ(s16(s.word(i)),
                      clampTo<s16>(s64(a.sword(i)) + b.sword(i)));
            s64 us = s64(a.word(i)) + b.word(i);
            EXPECT_EQ(u.word(i), u16(std::min<s64>(us, 65535)));
        }
    }
}

TEST_P(PackedWidth, SaturatingSubU8)
{
    unsigned w = GetParam();
    Rng rng(3);
    for (int it = 0; it < 200; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord d = psubs(a, b, ElemWidth::B8, w, false);
        for (unsigned i = 0; i < w; ++i)
            EXPECT_EQ(d.byte(i), satSubU8(a.byte(i), b.byte(i)));
    }
}

TEST_P(PackedWidth, MultiplyHalves)
{
    unsigned w = GetParam();
    Rng rng(4);
    for (int it = 0; it < 200; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord lo = pmull(a, b, ElemWidth::W16, w);
        VWord hi = pmulh(a, b, ElemWidth::W16, w);
        for (unsigned i = 0; i < w / 2; ++i) {
            s32 prod = s32(a.sword(i)) * b.sword(i);
            EXPECT_EQ(s16(lo.word(i)), s16(prod & 0xffff));
            EXPECT_EQ(s16(hi.word(i)), s16(prod >> 16));
        }
    }
}

TEST_P(PackedWidth, PmaddPairs)
{
    unsigned w = GetParam();
    Rng rng(5);
    for (int it = 0; it < 200; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord r = pmadd(a, b, w);
        for (unsigned j = 0; j < w / 4; ++j) {
            s64 want = s64(a.sword(2 * j)) * b.sword(2 * j) +
                       s64(a.sword(2 * j + 1)) * b.sword(2 * j + 1);
            EXPECT_EQ(r.sdword(j), s32(want));
        }
    }
}

TEST_P(PackedWidth, SadMatchesScalar)
{
    unsigned w = GetParam();
    Rng rng(6);
    for (int it = 0; it < 200; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord r = psad(a, b, w);
        for (unsigned half = 0; half < w / 8; ++half) {
            u32 want = 0;
            for (unsigned i = 0; i < 8; ++i)
                want += absDiffU8(a.byte(half * 8 + i),
                                  b.byte(half * 8 + i));
            EXPECT_EQ(r.qword(half), want);
        }
    }
}

TEST_P(PackedWidth, PackSaturates)
{
    unsigned w = GetParam();
    Rng rng(7);
    for (int it = 0; it < 200; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord s = packs(a, b, ElemWidth::W16, w);
        VWord u = packus(a, b, ElemWidth::W16, w);
        unsigned n = w / 2;
        for (unsigned i = 0; i < n; ++i) {
            EXPECT_EQ(s8(s.byte(i)), clampTo<s8>(a.sword(i)));
            EXPECT_EQ(s8(s.byte(n + i)), clampTo<s8>(b.sword(i)));
            EXPECT_EQ(u.byte(i),
                      u8(std::clamp<s64>(a.sword(i), 0, 255)));
            EXPECT_EQ(u.byte(n + i),
                      u8(std::clamp<s64>(b.sword(i), 0, 255)));
        }
    }
}

TEST_P(PackedWidth, UnpackInterleaves)
{
    unsigned w = GetParam();
    Rng rng(8);
    VWord a = randomWord(rng);
    VWord b = randomWord(rng);
    VWord lo = unpckl(a, b, ElemWidth::B8, w);
    VWord hi = unpckh(a, b, ElemWidth::B8, w);
    for (unsigned i = 0; i < w / 2; ++i) {
        EXPECT_EQ(lo.byte(2 * i), a.byte(i));
        EXPECT_EQ(lo.byte(2 * i + 1), b.byte(i));
        EXPECT_EQ(hi.byte(2 * i), a.byte(w / 2 + i));
        EXPECT_EQ(hi.byte(2 * i + 1), b.byte(w / 2 + i));
    }
}

TEST_P(PackedWidth, ShiftsPerElement)
{
    unsigned w = GetParam();
    Rng rng(9);
    for (unsigned sh = 0; sh < 16; ++sh) {
        VWord a = randomWord(rng);
        VWord l = pshift(a, ElemWidth::W16, w, sh, ShiftKind::Sll);
        VWord r = pshift(a, ElemWidth::W16, w, sh, ShiftKind::Srl);
        VWord s = pshift(a, ElemWidth::W16, w, sh, ShiftKind::Sra);
        for (unsigned i = 0; i < w / 2; ++i) {
            EXPECT_EQ(l.word(i), u16(a.word(i) << sh));
            EXPECT_EQ(r.word(i), u16(a.word(i) >> sh));
            EXPECT_EQ(s16(s.word(i)), s16(asr(a.sword(i), sh)));
        }
    }
}

TEST_P(PackedWidth, HorizontalSum)
{
    unsigned w = GetParam();
    Rng rng(10);
    for (int it = 0; it < 100; ++it) {
        VWord a = randomWord(rng);
        s64 su = psum(a, ElemWidth::B8, w, false);
        s64 ss = psum(a, ElemWidth::W16, w, true);
        s64 wu = 0, ws = 0;
        for (unsigned i = 0; i < w; ++i)
            wu += a.byte(i);
        for (unsigned i = 0; i < w / 2; ++i)
            ws += a.sword(i);
        EXPECT_EQ(su, wu);
        EXPECT_EQ(ss, ws);
    }
}

TEST_P(PackedWidth, MinMaxAvg)
{
    unsigned w = GetParam();
    Rng rng(11);
    for (int it = 0; it < 100; ++it) {
        VWord a = randomWord(rng);
        VWord b = randomWord(rng);
        VWord mn = pmin(a, b, ElemWidth::B8, w, false);
        VWord mx = pmax(a, b, ElemWidth::B8, w, false);
        VWord av = pavg(a, b, ElemWidth::B8, w);
        for (unsigned i = 0; i < w; ++i) {
            EXPECT_EQ(mn.byte(i), std::min(a.byte(i), b.byte(i)));
            EXPECT_EQ(mx.byte(i), std::max(a.byte(i), b.byte(i)));
            EXPECT_EQ(av.byte(i), avgU8(a.byte(i), b.byte(i)));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, PackedWidth, testing::Values(8u, 16u),
                         [](const auto &tpi) {
                             // Appended, not prepended: gcc 12's
                             // -Wrestrict misfires on "w" + string in
                             // Release builds.
                             std::string name = "w";
                             name += std::to_string(tpi.param);
                             return name;
                         });

TEST(Accumulator, SadAccumulates)
{
    Rng rng(20);
    Accum acc;
    s64 want[8]{};
    for (int r = 0; r < 16; ++r) {
        VWord a{rng.next(), rng.next()};
        VWord b{rng.next(), rng.next()};
        accSad(acc, a, b, 16);
        for (unsigned j = 0; j < 8; ++j)
            want[j] += absDiffU8(a.byte(2 * j), b.byte(2 * j)) +
                       absDiffU8(a.byte(2 * j + 1), b.byte(2 * j + 1));
    }
    for (unsigned j = 0; j < 8; ++j)
        EXPECT_EQ(acc.lane[j], want[j]);
}

TEST(Accumulator, MacAndSum)
{
    Rng rng(21);
    Accum acc;
    s64 total = 0;
    for (int r = 0; r < 16; ++r) {
        VWord a{rng.next(), rng.next()};
        VWord b{rng.next(), rng.next()};
        accMac(acc, a, b, 8);
        for (unsigned j = 0; j < 4; ++j)
            total += s64(a.sword(j)) * b.sword(j);
    }
    EXPECT_EQ(accSum(acc, 8), total);
}

TEST(Accumulator, PackRoundsAndSaturates)
{
    Accum acc;
    acc.lane[0] = (5 << 14) + (1 << 13);     // rounds up to 6
    acc.lane[1] = (5 << 14) + (1 << 13) - 1; // rounds down to 5
    acc.lane[2] = s64(1) << 40;              // saturates high
    acc.lane[3] = -(s64(1) << 40);           // saturates low
    VWord r = accPack(acc, 8, 14);
    EXPECT_EQ(s16(r.word(0)), 6);
    EXPECT_EQ(s16(r.word(1)), 5);
    EXPECT_EQ(s16(r.word(2)), 32767);
    EXPECT_EQ(s16(r.word(3)), -32768);
}

} // namespace
} // namespace vmmx
