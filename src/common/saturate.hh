/**
 * @file
 * Saturating and wrapping sub-word arithmetic helpers used by the packed
 * SIMD emulation and by golden kernel references.
 */

#ifndef VMMX_COMMON_SATURATE_HH
#define VMMX_COMMON_SATURATE_HH

#include <algorithm>
#include <limits>

#include "common/types.hh"

namespace vmmx
{

/** Clamp a wide intermediate to the range of the narrow type T. */
template <typename T>
constexpr T
clampTo(s64 v)
{
    constexpr s64 lo = std::numeric_limits<T>::min();
    constexpr s64 hi = std::numeric_limits<T>::max();
    return static_cast<T>(std::min(hi, std::max(lo, v)));
}

constexpr u8 satAddU8(u8 a, u8 b) { return clampTo<u8>(s64(a) + b); }
constexpr u8 satSubU8(u8 a, u8 b) { return clampTo<u8>(s64(a) - b); }
constexpr s16 satAddS16(s16 a, s16 b) { return clampTo<s16>(s64(a) + b); }
constexpr s16 satSubS16(s16 a, s16 b) { return clampTo<s16>(s64(a) - b); }

/** Absolute difference of unsigned bytes (exact; no overflow). */
constexpr u8 absDiffU8(u8 a, u8 b) { return a > b ? a - b : b - a; }

/** Round-to-nearest average of unsigned bytes (pavgb semantics). */
constexpr u8 avgU8(u8 a, u8 b) { return u8((unsigned(a) + b + 1) >> 1); }

/** Arithmetic shift right that is well-defined for negative values. */
constexpr s32
asr(s32 v, unsigned sh)
{
    return v >= 0 ? (v >> sh) : ~((~v) >> sh);
}

constexpr s64
asr64(s64 v, unsigned sh)
{
    return v >= 0 ? (v >> sh) : ~((~v) >> sh);
}

} // namespace vmmx

#endif // VMMX_COMMON_SATURATE_HH
