/**
 * @file
 * Tag/state array of one cache level: set-associative with true-LRU
 * replacement, valid + dirty bits.  Purely a state model -- timing lives
 * in MemorySystem, and data lives in the functional MemImage.
 */

#ifndef VMMX_MEM_CACHE_ARRAY_HH
#define VMMX_MEM_CACHE_ARRAY_HH

#include <vector>

#include "mem/params.hh"

namespace vmmx
{

class CacheArray
{
  public:
    explicit CacheArray(const CacheParams &params);

    /** Result of inserting a line. */
    struct FillResult
    {
        bool evicted = false;
        Addr evictedLine = 0; ///< line-aligned address
        bool evictedDirty = false;
    };

    /** @return true when the line holding @p addr is present. */
    bool probe(Addr addr) const { return find(addr) != nullptr; }

    /** Look the line up once: on a hit, mark it most recently used and,
     *  for a write, dirty.  @return true on a hit. */
    bool hit(Addr addr, bool write)
    {
        Line *l = find(addr);
        if (!l)
            return false;
        l->lruStamp = ++stamp_;
        l->dirty = l->dirty || write;
        return true;
    }

    /** Insert the line holding @p addr, evicting the LRU way if needed. */
    FillResult fill(Addr addr, bool dirty = false);

    /** Drop the line if present; @return true when it was present. */
    bool invalidate(Addr addr);

    /** @return true when present and dirty. */
    bool isDirty(Addr addr) const;

    /** Drop everything (used between benchmark repetitions). */
    void flush();

    /** Line-aligned base of the line containing @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~Addr(lineMask_); }

    u32 lineBytes() const { return params_.lineBytes; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        u64 lruStamp = 0;
    };

    const Line *find(Addr addr) const
    {
        Addr line = lineAddr(addr);
        const Line *base = &lines_[size_t(setOf(line)) * params_.assoc];
        for (u32 w = 0; w < params_.assoc; ++w) {
            if (base[w].valid && base[w].tag == line)
                return &base[w];
        }
        return nullptr;
    }

    Line *find(Addr addr)
    {
        return const_cast<Line *>(
            static_cast<const CacheArray *>(this)->find(addr));
    }

    /** Set index of a line-aligned address (numSets_ is a power of
     *  two, asserted at construction). */
    u64 setOf(Addr line) const { return (line >> lineShift_) & setMask_; }

    CacheParams params_;
    u32 lineMask_;
    u32 lineShift_;
    u32 numSets_;
    u64 setMask_;
    std::vector<Line> lines_; // numSets_ x assoc
    u64 stamp_ = 0;
};

} // namespace vmmx

#endif // VMMX_MEM_CACHE_ARRAY_HH
