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
 * loop, so they are defined inline and avoid heap-backed containers:
 * the issue queue is a sorted ring whose front is the earliest leaver,
 * the free lists pair each allocation with the one release it can wait
 * for, and the store window walks only the stores still in flight.
 */

#ifndef VMMX_SIM_RESOURCES_HH
#define VMMX_SIM_RESOURCES_HH

#include <algorithm>
#include <memory>
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
 * Releases arrive in commit order, so registers come back first in,
 * first out: allocation n, once the initially free registers are used
 * up, takes release n - initialFree.  It waits for that release only
 * when the release is later than both the requested cycle and every
 * earlier allocation's result.  Otherwise an allocation made after the
 * release already reached its cycle and freed it (the ones made before
 * all returned earlier cycles, since rename precedes commit).  This is
 * bit for bit a free count that each allocation tops up with every
 * release due by its cycle.
 */
class RegFreeList
{
  public:
    RegFreeList(unsigned physRegs, unsigned logicalRegs);

    /** @return earliest cycle >= c at which a register can be allocated;
     *  performs the allocation. */
    Cycle allocate(Cycle c)
    {
        if (allocs_ >= initialFree_) {
            u64 n = allocs_ - initialFree_;
            vmmx_assert(n < releases_,
                        "rename deadlock: no free registers and none in "
                        "flight");
            Cycle freed = ring_[n & mask_];
            if (freed > c && freed > last_)
                c = freed;
        }
        ++allocs_;
        last_ = std::max(last_, c);
        return c;
    }

    /** A previous mapping becomes free when its successor commits.
     *  Rename precedes commit, so a release follows every allocation
     *  made so far, in count and in cycle, and successive commits never
     *  move backwards in time; allocate() relies on all three. */
    void release(Cycle commitCycle)
    {
        vmmx_assert(releases_ < allocs_ && commitCycle > last_,
                    "free-list release before its allocation");
        vmmx_assert(releases_ == 0 ||
                        commitCycle >= ring_[(releases_ - 1) & mask_],
                    "free-list releases must be in commit order");
        ring_[releases_++ & mask_] = commitCycle;
    }

    void reset()
    {
        allocs_ = releases_ = 0;
        last_ = 0;
    }

  private:
    /** Release cycles not yet taken by an allocation: at most
     *  initialFree_, since each follows its own allocation. */
    std::vector<Cycle> ring_;
    u64 mask_;
    u64 allocs_ = 0;
    u64 releases_ = 0;
    Cycle last_ = 0; ///< latest cycle any allocation returned
    u64 initialFree_;
};

/**
 * Store->load disambiguation: a load waits for every store among the
 * last @p window stores whose bytes overlap its own and whose access is
 * not done when the load would issue.
 *
 * Rename is monotone, and every load issues after its rename, so a store
 * done by a load's rename cycle + 1 can delay neither that load nor any
 * later one.  The walk drops such stores, and stores pushed out of the
 * window, as it passes them, so it visits only the few stores still in
 * flight rather than the whole window.
 */
class StoreWindow
{
  public:
    explicit StoreWindow(unsigned window);

    void push(Addr lo, Addr hi, Cycle done)
    {
        if (window_ == 0)
            return;
        // With window_ entries held, the oldest leaves the window now.
        if (tail_ - head_ == window_)
            ++head_;
        ring_[tail_++ & mask_] = {lo, hi, done, pushes_++};
    }

    /** @return @p issue raised to the done cycle of every overlapping
     *  store in the window; @p floor is the load's rename cycle + 1 and
     *  must not decrease from one load to the next. */
    Cycle disambiguate(Addr lo, Addr hi, Cycle issue, Cycle floor)
    {
        // Newest first; survivors are packed against the tail.
        u64 keep = tail_;
        for (u64 i = tail_; i != head_;) {
            const Pending st = ring_[--i & mask_];
            if (st.push + window_ < pushes_)
                break; // out of the window, as is every older store
            if (st.done <= floor)
                continue;
            if (st.done > issue && st.lo < hi && lo < st.hi)
                issue = st.done;
            ring_[--keep & mask_] = st;
        }
        head_ = keep;
        return issue;
    }

    void reset() { head_ = tail_ = pushes_ = 0; }

  private:
    struct Pending
    {
        Addr lo;
        Addr hi;
        Cycle done;
        u64 push; ///< push number, for the window check
    };

    /** Live stores, oldest first.  Left uninitialised, so a large
     *  window commits only the pages its stores reach. */
    std::unique_ptr<Pending[]> ring_;
    u64 mask_ = 0;
    u64 head_ = 0;
    u64 tail_ = 0;
    u64 pushes_ = 0;
    u64 window_;
};

} // namespace vmmx

#endif // VMMX_SIM_RESOURCES_HH
