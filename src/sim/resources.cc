#include "sim/resources.hh"

namespace vmmx
{

namespace
{

u32
nextPow2(u32 v)
{
    u32 p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

IssueQueueModel::IssueQueueModel(unsigned capacity) : capacity_(capacity)
{
    vmmx_assert(capacity > 0, "issue queue with zero entries");
    u32 cap = nextPow2(u32(capacity));
    ring_.assign(cap, 0);
    mask_ = cap - 1;
}

RegFreeList::RegFreeList(unsigned physRegs, unsigned logicalRegs)
    : free_(physRegs - logicalRegs), initialFree_(physRegs - logicalRegs)
{
    vmmx_assert(physRegs > logicalRegs,
                "physical registers must exceed logical registers");
    // At most physRegs mappings can be pending release at once; one
    // spare slot keeps head != tail unambiguous at full occupancy.
    u32 cap = nextPow2(u32(physRegs) + 1);
    ring_.assign(cap, 0);
    mask_ = cap - 1;
}

} // namespace vmmx
