/**
 * @file
 * Fundamental scalar types used across the simulator.
 */

#ifndef VMMX_COMMON_TYPES_HH
#define VMMX_COMMON_TYPES_HH

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace vmmx
{

/** Simulated byte address. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Dynamic instruction sequence number (commit order). */
using SeqNum = std::uint64_t;

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using s8 = std::int8_t;
using s16 = std::int16_t;
using s32 = std::int32_t;
using s64 = std::int64_t;

// ---- byte-buffer scalar access -------------------------------------------
// The sanctioned way to move fixed-width integers in and out of byte
// buffers (wire frames, trace files, checksum tails).  memcpy is free of
// the alignment and strict-aliasing UB a reinterpret_cast load carries
// -- a u8 cursor into a frame has no u32/u64 alignment guarantee -- and
// compiles to a single mov on every target we build for.  The wire
// format is little-endian; the std::endian branch keeps the encoded
// bytes identical on a big-endian host.

/** Load a little-endian T from an arbitrarily aligned byte pointer. */
template <typename T>
inline T
loadLE(const u8 *p)
{
    static_assert(std::is_integral_v<T> && std::is_unsigned_v<T>);
    T v;
    std::memcpy(&v, p, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
        T r = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            r |= T((v >> (8 * (sizeof(T) - 1 - i))) & 0xff) << (8 * i);
        v = r;
    }
    return v;
}

/** Store T little-endian to an arbitrarily aligned byte pointer. */
template <typename T>
inline void
storeLE(u8 *p, T v)
{
    static_assert(std::is_integral_v<T> && std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::big) {
        T r = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            r |= T((v >> (8 * (sizeof(T) - 1 - i))) & 0xff) << (8 * i);
        v = r;
    }
    std::memcpy(p, &v, sizeof(T));
}

/** A byte buffer viewed as chars for iostream read()/write().  char is
 *  allowed to alias anything, so the cast is well-defined; centralizing
 *  it here keeps reinterpret_cast out of the serialization code. */
inline const char *
asChars(const u8 *p)
{
    return reinterpret_cast<const char *>(p);
}

inline char *
asChars(u8 *p)
{
    return reinterpret_cast<char *>(p);
}

} // namespace vmmx

#endif // VMMX_COMMON_TYPES_HH
