#include "sim/resources.hh"

#include <bit>

namespace vmmx
{

IssueQueueModel::IssueQueueModel(unsigned capacity) : capacity_(capacity)
{
    vmmx_assert(capacity > 0, "issue queue with zero entries");
    u32 cap = std::bit_ceil(u32(capacity));
    ring_.assign(cap, 0);
    mask_ = cap - 1;
}

RegFreeList::RegFreeList(unsigned physRegs, unsigned logicalRegs)
    : initialFree_(physRegs - logicalRegs)
{
    vmmx_assert(physRegs > logicalRegs,
                "physical registers must exceed logical registers");
    u64 cap = std::bit_ceil(initialFree_);
    ring_.assign(cap, 0);
    mask_ = cap - 1;
}

StoreWindow::StoreWindow(unsigned window) : window_(window)
{
    if (window == 0)
        return;
    u64 cap = std::bit_ceil(u64(window));
    ring_ = std::make_unique_for_overwrite<Pending[]>(cap);
    mask_ = cap - 1;
}

} // namespace vmmx
