#include "common/memimage.hh"

#include <sys/mman.h>

#include <cerrno>
#include <utility>

namespace vmmx
{

MemImage::MemImage(size_t size) : size_(size)
{
    if (size_ == 0)
        return; // mmap rejects empty mappings; every access fails check()
    void *p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map a %zu-byte memory arena: %s", size_,
              std::strerror(errno));
    data_ = static_cast<u8 *>(p);
}

MemImage::~MemImage()
{
    if (data_)
        ::munmap(data_, size_);
}

MemImage::MemImage(MemImage &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)), brk_(other.brk_)
{
}

MemImage &
MemImage::operator=(MemImage &&other) noexcept
{
    if (this != &other) {
        if (data_)
            ::munmap(data_, size_);
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        brk_ = other.brk_;
    }
    return *this;
}

Addr
MemImage::alloc(size_t bytes, size_t align)
{
    vmmx_assert(align != 0 && (align & (align - 1)) == 0,
                "alignment must be a power of two");
    Addr base = (brk_ + align - 1) & ~(Addr(align) - 1);
    // Compare against the room left, never base + bytes, which can wrap.
    if (base > size_ || bytes > size_ - base)
        fatal("memory arena exhausted: need %zu bytes at 0x%llx (arena %zu)",
              bytes, static_cast<unsigned long long>(base), size_);
    brk_ = base + bytes;
    return base;
}

void
MemImage::copyIn(Addr a, const void *src, size_t n)
{
    check(a, n);
    std::memcpy(&data_[a], src, n);
}

} // namespace vmmx
