#include "mem/cache_array.hh"

#include "common/logging.hh"

namespace vmmx
{

CacheArray::CacheArray(const CacheParams &params)
    : params_(params)
{
    vmmx_assert(params_.lineBytes && !(params_.lineBytes &
                                       (params_.lineBytes - 1)),
                "line size must be a power of two");
    numSets_ = params_.numSets();
    vmmx_assert(numSets_ > 0, "cache too small for its line size");
    vmmx_assert((numSets_ & (numSets_ - 1)) == 0,
                "number of sets must be a power of two");
    lineMask_ = params_.lineBytes - 1;
    lineShift_ = 0;
    while ((1u << lineShift_) < params_.lineBytes)
        ++lineShift_;
    setMask_ = numSets_ - 1;
    lines_.resize(size_t(numSets_) * params_.assoc);
}

CacheArray::FillResult
CacheArray::fill(Addr addr, bool dirty)
{
    FillResult res;
    if (hit(addr, dirty))
        return res;

    Addr line = lineAddr(addr);
    Line *base = &lines_[size_t(setOf(line)) * params_.assoc];
    Line *victim = &base[0];
    for (u32 w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }

    if (victim->valid) {
        res.evicted = true;
        res.evictedLine = victim->tag;
        res.evictedDirty = victim->dirty;
    }

    victim->tag = line;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lruStamp = ++stamp_;
    return res;
}

bool
CacheArray::invalidate(Addr addr)
{
    Line *l = find(addr);
    if (!l)
        return false;
    l->valid = false;
    l->dirty = false;
    return true;
}

bool
CacheArray::isDirty(Addr addr) const
{
    const Line *l = find(addr);
    return l && l->dirty;
}

void
CacheArray::flush()
{
    for (auto &l : lines_) {
        l.valid = false;
        l.dirty = false;
    }
}

} // namespace vmmx
