/**
 * @file
 * Structural-resource models used by the single-pass out-of-order timing
 * core: per-cycle width gates for the in-order stages, slot pools for
 * functional units, a windowed issue-queue model, and per-class physical
 * register free lists.
 *
 * Instructions are processed in program order; these helpers answer "at
 * which cycle >= c can this instruction acquire the resource" while
 * keeping the acquired reservations.
 *
 * Every model here sits on the per-instruction hot path of the timing
 * loop (the profile is dominated by them, not by the caches), so they
 * are defined inline and avoid heap-backed containers: the issue queue
 * is a sorted ring whose front is the earliest leaver, and the free
 * lists exploit that releases arrive in non-decreasing commit order,
 * turning the priority queue this replaced into a plain FIFO ring with
 * identical semantics.
 */

#ifndef VMMX_SIM_RESOURCES_HH
#define VMMX_SIM_RESOURCES_HH

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace vmmx
{

/**
 * In-order pipeline stage of fixed width: at most @p width instructions
 * pass per cycle, in program order.
 */
class WidthGate
{
  public:
    explicit WidthGate(unsigned width) : width_(width) {}

    /** @return the cycle at which the next instruction passes (>= c). */
    Cycle pass(Cycle c)
    {
        if (c > cur_) {
            cur_ = c;
            used_ = 1;
            return cur_;
        }
        // In-order stage: c <= cur_ means this instruction is ready no
        // later than the stage's current cycle.
        if (used_ < width_) {
            ++used_;
            return cur_;
        }
        ++cur_;
        used_ = 1;
        return cur_;
    }

    void reset()
    {
        cur_ = 0;
        used_ = 0;
    }

  private:
    unsigned width_;
    Cycle cur_ = 0;
    unsigned used_ = 0;
};

/**
 * A pool of identical units; acquiring takes the earliest-free unit and
 * occupies it for @p occupancy cycles.  Models functional units (and,
 * with occupancy 1, per-cycle issue slots).
 */
class SlotPool
{
  public:
    explicit SlotPool(unsigned slots) : free_(slots, 0)
    {
        vmmx_assert(slots > 0, "slot pool with zero units");
    }

    /** @return start cycle >= c at which a unit was acquired. */
    Cycle acquire(Cycle c, Cycle occupancy = 1)
    {
        Cycle *slot = free_.data();
        for (size_t i = 1; i < free_.size(); ++i)
            if (free_[i] < *slot)
                slot = &free_[i];
        Cycle start = std::max(c, *slot);
        *slot = start + std::max<Cycle>(occupancy, 1);
        return start;
    }

    void reset() { std::fill(free_.begin(), free_.end(), 0); }

  private:
    std::vector<Cycle> free_;
};

/**
 * Issue-queue occupancy: entries are held from rename until issue.  The
 * caller asks for space before renaming and registers the (later
 * computed) issue cycle afterwards.
 *
 * Taking space in a full queue frees the entry that leaves earliest, so
 * the minimum of the resident issue cycles is all the model ever
 * observes.  They are kept sorted, earliest first, in a power-of-two
 * ring: waitForSpace() pops the front and insert() is one insertion-sort
 * step from the back.  Issue cycles arrive nearly in order, so an insert
 * shifts a few entries where a min scan would compare all of them.
 */
class IssueQueueModel
{
  public:
    explicit IssueQueueModel(unsigned capacity);

    /** @return earliest cycle >= c with a free entry. */
    Cycle waitForSpace(Cycle c)
    {
        if (tail_ - head_ >= capacity_) {
            Cycle leaves = ring_[head_++ & mask_];
            if (leaves >= c)
                c = leaves + 1;
        }
        return c;
    }

    /** Record that the instruction renamed here leaves at @p issueCycle;
     *  waitForSpace() must have made room for it. */
    void insert(Cycle issueCycle)
    {
        vmmx_assert(tail_ - head_ < capacity_,
                    "issue-queue insert without a free entry");
        u32 i = tail_++;
        for (; i != head_ && ring_[(i - 1) & mask_] > issueCycle; --i)
            ring_[i & mask_] = ring_[(i - 1) & mask_];
        ring_[i & mask_] = issueCycle;
    }

    void reset() { head_ = tail_ = 0; }

  private:
    std::vector<Cycle> ring_; ///< resident issue cycles, earliest first
    u32 head_ = 0;
    u32 tail_ = 0;
    u32 mask_ = 0;
    unsigned capacity_;
};

/**
 * Physical register free list for one register class.  A rename consumes
 * one register; committing a later writer of the same logical register
 * releases the previous mapping.
 *
 * Commit is in order, so release() sees non-decreasing cycles and the
 * pending releases form a sorted FIFO: a power-of-two ring indexed by
 * monotone head/tail counters replaces the priority queue bit for bit.
 * At most total physical registers can be awaiting release, bounding
 * the ring occupancy.
 */
class RegFreeList
{
  public:
    RegFreeList(unsigned physRegs, unsigned logicalRegs);

    /** @return earliest cycle >= c at which a register can be allocated;
     *  performs the allocation. */
    Cycle allocate(Cycle c)
    {
        harvest(c);
        while (free_ == 0) {
            vmmx_assert(head_ != tail_,
                        "rename deadlock: no free registers and none in "
                        "flight");
            c = std::max(c, ring_[head_ & mask_]);
            harvest(c);
        }
        --free_;
        return c;
    }

    /** A previous mapping becomes free when its successor commits;
     *  successive commits never move backwards in time (the ring is
     *  sorted only because of this -- fail fast if a caller breaks it,
     *  since harvest() would otherwise silently strand entries). */
    void release(Cycle commitCycle)
    {
        vmmx_assert(head_ == tail_ ||
                        commitCycle >= ring_[(tail_ - 1) & mask_],
                    "free-list releases must be in commit order");
        ring_[tail_ & mask_] = commitCycle;
        ++tail_;
    }

    void reset()
    {
        head_ = tail_ = 0;
        free_ = initialFree_;
    }

    unsigned freeNow() const { return free_; }

  private:
    void harvest(Cycle c)
    {
        while (head_ != tail_ && ring_[head_ & mask_] <= c) {
            ++head_;
            ++free_;
        }
    }

    std::vector<Cycle> ring_; ///< pending release cycles, oldest first
    u32 head_ = 0;
    u32 tail_ = 0;
    u32 mask_;
    unsigned free_;
    unsigned initialFree_;
};

} // namespace vmmx

#endif // VMMX_SIM_RESOURCES_HH
