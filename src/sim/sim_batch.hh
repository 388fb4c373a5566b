/**
 * @file
 * Structure-of-arrays view of a batch of SimContexts, the state the
 * host-SIMD step kernels (sim/simd_step.hh) operate on.
 *
 * Without an SoA kernel a group steps context-major: every context
 * replays a decoded block to completion with SimContext::step() before
 * the next context touches it (BatchRun, sim/sim_context.hh).  On the
 * AVX2 and AVX-512 paths the SoA form turns that inside out: the
 * per-config mutable timing state the inner step touches every record
 * -- the width gates, the ready table, ROB heads, functional-unit pool
 * slots, the stall counters -- is hoisted into parallel u64 arrays
 * indexed by configuration ("lane"), so one DecodedInst advances all N
 * configurations with vector arithmetic: cycle compares, maxes and
 * blends across lanes.
 *
 * Layout rules the kernels rely on:
 *  - every per-lane array is padded to a multiple of 8 lanes (the
 *    widest kernel) so any vector width can stream it without tail
 *    handling; pad lanes hold inert values and are never read back,
 *  - multi-slot structures (ready table, pools) are slot-major,
 *    `[slot * padded + lane]`, so one slot across all lanes is one
 *    contiguous vector load,
 *  - pool slot arrays are sized to the widest lane; slots a lane does
 *    not have hold the kInf sentinel, which no min scan can select
 *    (real cycle values stay far below it).
 *
 * What stays scalar per lane -- the data-dependent tails vectorization
 * cannot reach: the issue-queue window, free-list FIFO bookkeeping,
 * memory-system accesses and store-set disambiguation, branch-predictor
 * updates (skipped for lanes 1..N-1 when every lane has the same
 * predictor geometry, since prediction inputs are trace-determined and
 * the tables then evolve identically), and the O(1) writebacks after
 * each vector min scan.  These go through the inline helpers below,
 * which reach into the borrowed SimContexts (SimBatch is a friend).
 *
 * Statistics that are trace-determined (instruction, branch, mem-op
 * and class counts -- identical for every lane by construction) are
 * accumulated once per batch and fanned out in finish(), which writes
 * every lane's results back into its SimContext so finish()/collect()
 * work exactly as on the serial path.
 */

#ifndef VMMX_SIM_SIM_BATCH_HH
#define VMMX_SIM_SIM_BATCH_HH

#include <array>
#include <span>
#include <vector>

#include "sim/sim_context.hh"

namespace vmmx
{

struct SimBatch
{
    /** Sentinel for pool slots a lane does not have: larger than any
     *  cycle value a run can reach, far below 2^63 so the signed vector
     *  compare tricks stay exact. */
    static constexpr u64 kInf = u64(1) << 62;

    /** Lane padding: the widest kernel's vector width. */
    static constexpr size_t padLanes = 8;

    /** Hoist the (freshly reset) contexts into SoA form. */
    explicit SimBatch(std::span<SimContext *const> ctxs);

    /** Write every lane's results back into its SimContext (stats,
     *  commit frontier, ROB head) so SimContext::finish() returns the
     *  same RunStats the serial path would. */
    void finish();

    size_t lanes = 0;  ///< live configurations
    size_t padded = 0; ///< lanes rounded up to a multiple of padLanes

    std::vector<SimContext *> ctx;

    // ---- per-lane parameters (u64 so vector ops load them directly)
    std::vector<u64> gateW;      ///< way: fetch = rename = commit width
    std::vector<u64> frontDepth;
    std::vector<u64> penalty;    ///< mispredict redirect cycles
    std::vector<u64> lanesPerFu; ///< for the vl > 16 occupancy divide

    // ---- per-lane pipeline state (WidthGate cur/used triples) ----
    std::vector<u64> fCur, fUsed; ///< fetch gate
    std::vector<u64> rCur, rUsed; ///< rename gate
    std::vector<u64> cCur, cUsed; ///< commit gate
    std::vector<u64> redirect;    ///< fetchRedirect_
    std::vector<u64> lastCommit;

    /** Ready table, slot-major: decodedReadySlots rows x padded. */
    std::vector<u64> regReady;
    /** ceil(vl / lanesPerFu) table, slot-major: 17 rows x padded. */
    std::vector<u64> lanesOcc;

    // ---- functional-unit pools (slot-major) ----
    struct Pool
    {
        size_t rows = 0; ///< widest lane's unit count
        std::vector<u64> slots;
    };
    Pool intPool, fpPool, simdPool, simdIssuePool;

    // ---- ROB ring (storage stays inside each context) ----
    std::vector<Cycle *> robRing;
    std::vector<u64> robPos, robSize;

    // ---- per-lane statistics ----
    std::vector<u64> stallRob, stallIq, stallRegs, mispredicts;
    std::vector<u64> scalarCyc, vectorCyc;

    // ---- trace-determined counters (identical for every lane) ----
    u64 instructions = 0;
    u64 branches = 0;
    u64 memOps = 0;
    std::array<u64, numInstClasses> instByClass{};
    /** Every lane has the same predictor geometry, so predicting on
     *  lane 0 stands for all of them (inputs are trace-determined). */
    bool bpredShared = false;

    // ---- per-record scratch, padded like the state arrays ----
    std::vector<u64> rn, ready, issue, done, cc, occ, robFree, t1;

    // ---- scalar sub-phases reaching into the borrowed contexts ----

    Cycle
    iqWaitForSpace(size_t l, Cycle c)
    {
        return ctx[l]->iq_.waitForSpace(c);
    }

    void
    iqInsert(size_t l, Cycle issueCycle)
    {
        ctx[l]->iq_.insert(issueCycle);
    }

    Cycle
    flAllocate(size_t l, u8 cls, Cycle c)
    {
        return ctx[l]->freeLists_[cls].allocate(c);
    }

    void
    flRelease(size_t l, u8 cls, Cycle commitCycle)
    {
        ctx[l]->freeLists_[cls].release(commitCycle);
    }

    bool
    predictLane(size_t l, u32 staticId, bool taken)
    {
        return ctx[l]->bpred_.predict(staticId, taken);
    }

    /** The whole Mem-FU case for one lane: disambiguation, the cache
     *  access, store-window push.  Reads ready[l], writes issue[l] and
     *  done[l]. */
    void
    memAccess(size_t l, const DecodedInst &inst)
    {
        SimContext &sc = *ctx[l];
        Cycle is = ready[l];
        if (inst.has(DecodedInst::kLoad))
            is = sc.disambiguate(inst.lo, inst.hi, is);
        bool isWrite = inst.has(DecodedInst::kStore);
        Cycle dn;
        if (inst.has(DecodedInst::kVecMem)) {
            dn = sc.mem_->vectorAccess(inst.addr, inst.rowBytes,
                                       inst.stride, inst.rows, isWrite,
                                       is);
        } else {
            dn = sc.mem_->scalarAccess(inst.addr, inst.rowBytes, isWrite,
                                       is);
        }
        if (isWrite)
            sc.pushStore(inst.lo, inst.hi, dn);
        issue[l] = is;
        done[l] = dn;
    }
};

} // namespace vmmx

#endif // VMMX_SIM_SIM_BATCH_HH
