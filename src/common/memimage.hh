/**
 * @file
 * Flat byte-addressable memory arena shared by the functional emulation
 * (trace DSL) and golden reference implementations.
 *
 * Addresses are allocated bump-pointer style; there is no protection or
 * paging — workloads are cooperative.  Accessors are little-endian and
 * bounds-checked (a wild access is a simulator bug, hence panic).
 *
 * The arena is one private anonymous mapping, so its size is a virtual
 * reservation: the kernel commits an already-zero page only when a
 * workload first writes it, and untouched bytes read as 0.  Generation
 * images are sized far above what workloads use (no application writes
 * past 128 KiB of its 32 MiB image, no kernel allocates past 141 KiB of
 * its 16 MiB one), so building an image costs microseconds and a few
 * pages instead of a 32 MiB memset.
 */

#ifndef VMMX_COMMON_MEMIMAGE_HH
#define VMMX_COMMON_MEMIMAGE_HH

#include <cstring>

#include "common/logging.hh"
#include "common/types.hh"

namespace vmmx
{

class MemImage
{
  public:
    /** @param size arena size in bytes (reserved, committed on write). */
    explicit MemImage(size_t size = 16u << 20);
    ~MemImage();

    MemImage(MemImage &&other) noexcept;
    MemImage &operator=(MemImage &&other) noexcept;
    MemImage(const MemImage &) = delete;
    MemImage &operator=(const MemImage &) = delete;

    /** Allocate @p bytes aligned to @p align; returns base address. */
    Addr alloc(size_t bytes, size_t align = 16);

    size_t size() const { return size_; }
    Addr brk() const { return brk_; }

    u8 read8(Addr a) const { check(a, 1); return data_[a]; }
    u16 read16(Addr a) const { return readT<u16>(a); }
    u32 read32(Addr a) const { return readT<u32>(a); }
    u64 read64(Addr a) const { return readT<u64>(a); }

    void write8(Addr a, u8 v) { check(a, 1); data_[a] = v; }
    void write16(Addr a, u16 v) { writeT(a, v); }
    void write32(Addr a, u32 v) { writeT(a, v); }
    void write64(Addr a, u64 v) { writeT(a, v); }

    /** Bulk copy helper for test/bench setup. */
    void copyIn(Addr a, const void *src, size_t n);

    /** Direct pointer for golden references; valid while the image lives. */
    u8 *raw(Addr a, size_t n) { check(a, n); return &data_[a]; }
    const u8 *raw(Addr a, size_t n) const { check(a, n); return &data_[a]; }

  private:
    void
    check(Addr a, size_t n) const
    {
        if (a + n > size_ || a + n < a)
            panic("memory access [0x%llx, +%zu) out of arena of %zu bytes",
                  static_cast<unsigned long long>(a), n, size_);
    }

    template <typename T>
    T
    readT(Addr a) const
    {
        check(a, sizeof(T));
        T v;
        std::memcpy(&v, &data_[a], sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(Addr a, T v)
    {
        check(a, sizeof(T));
        std::memcpy(&data_[a], &v, sizeof(T));
    }

    u8 *data_ = nullptr; ///< the mapping; null when size_ is 0 or moved from
    size_t size_ = 0;
    Addr brk_ = 64; // keep address 0 unmapped-ish: allocations never return 0
};

} // namespace vmmx

#endif // VMMX_COMMON_MEMIMAGE_HH
