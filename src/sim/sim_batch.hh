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
 * -- the width gates, the ready table, functional-unit pool slots, the
 * issue queue, free lists and ROB, the stall counters -- is hoisted
 * into parallel u64 arrays indexed by configuration ("lane"), so one
 * DecodedInst advances all N configurations with vector arithmetic:
 * cycle compares, maxes and blends across lanes.
 *
 * Layout rules the kernels rely on:
 *  - every per-lane array is padded to a multiple of 8 lanes (the
 *    widest kernel) so any vector width can stream it without tail
 *    handling; pad lanes hold inert values and are never read back,
 *  - multi-slot structures (ready table, pools, rings) are slot-major,
 *    `[slot * padded + lane]`, so one slot across all lanes is one
 *    contiguous vector load,
 *  - pool slot arrays are sized to the widest lane; slots a lane does
 *    not have hold the kInf sentinel, which no min scan can select
 *    (real cycle values stay far below it).
 *
 * Lockstep rings.  The issue queue, the four register free lists and
 * the ROB are queues whose pushes the trace alone decides: every
 * record commits one ROB entry, every record bound for a functional
 * unit takes an issue-queue entry, and a record with a destination of
 * class k allocates a class-k register at rename and releases one at
 * commit.  So every lane pushes on the same records, and one shared count
 * numbers the pushes of all of them.  Each structure is a Ring: rows
 * of one entry per lane with a single shared write row, so a push is
 * one vector store.  A lane's capacity only sets how far back it reads
 * -- the commit robSize records ago, the release initialFree
 * allocations ago, the IQ entry iqSize inserts ago -- which makes it a
 * per-lane read offset, and the read one gather per structure per
 * record.  Until a lane has pushed that many entries its read lands on
 * a row no push has written yet, which holds 0: a ROB entry committed
 * at cycle 0 (what SimContext's zeroed ring holds), a release no
 * allocation waits for, an empty IQ slot.  That is what the context's
 * own models answer there, so the rings are exact: IssueQueueModel,
 * RegFreeList and the context's ROB ring stay the oracle behind
 * SimContext::step(), and SimBatch never touches them.
 *
 * The issue queue needs one more step.  A full queue frees its
 * earliest leaver, so each lane keeps its last iqSize rows sorted,
 * earliest first: the read row is the one to pop, and an insert sinks
 * the new entry from the write row.  Entries hold the cycle their
 * instruction leaves the queue, issue + 1, so a pop is a max with the
 * rename cycle and an empty slot (0) never wins.  See iqInsert in
 * sim/simd_step.hh for why sorting rows outside a lane's window is
 * harmless.
 *
 * Each ring is sized from the batch's largest capacity and costs
 * rows x padded lanes x 8 B: the ROB max robSize rows (a 15-config
 * ablation-wide group: 128 x 16 x 8 B = 16 KiB), the issue queue
 * max(iqSize, iqWindow) + 1 (65 rows, 8.1 KiB), each free list
 * max(phys - logical) (64 Int, 40 Fp, 64 SIMD and 1 Acc rows in the
 * MMX64 group, 21 KiB together).
 *
 * What stays scalar per lane -- the data-dependent tails vectorization
 * cannot reach: memory-system accesses and the store-window walk,
 * issue-queue inserts that sink past the vector window,
 * branch-predictor updates (skipped for lanes 1..N-1 when every lane
 * has the same predictor geometry, since prediction inputs are
 * trace-determined and the tables then evolve identically), and the
 * O(1) writebacks after each vector min scan.  memAccess() and
 * predictLane() reach into the borrowed SimContexts for them
 * (SimBatch is a friend).
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

    /** Issue-queue rows the kernels' vector insert covers; the IQ ring
     *  keeps that many rows beyond its deepest lane.  8 beat 4 and 16
     *  on ablation-wide on both kernels and came within 4% of 4 on
     *  fig5. */
    static constexpr size_t iqWindow = 8;

    /** Hoist the (freshly reset) contexts into SoA form. */
    explicit SimBatch(std::span<SimContext *const> ctxs);

    /** Write every lane's results back into its SimContext (stats,
     *  commit frontier, fetch redirect) so SimContext::finish() returns
     *  the same RunStats the serial path would. */
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

    // ---- lockstep rings (see the file comment) ----
    struct Ring
    {
        size_t rows = 0; ///< enough for the deepest lane's reads
        size_t pos = 0;  ///< shared write row
        std::vector<u64> slots; ///< rows x padded, zeroed
        /** Per lane, (rows - depth) * padded + lane: lane l reads
         *  element pos * padded + readOff[l], wrapped into the ring,
         *  i.e. its entry depth pushes before the write row. */
        std::vector<u64> readOff;

        /** Move the write row on by one push. */
        void advance() { pos = pos + 1 == rows ? 0 : pos + 1; }
    };
    Ring rob; ///< commit cycles; depth robSize
    Ring iq;  ///< leave cycles (issue + 1, 0 = empty); depth iqSize
    /** Release (commit) cycles per register class; depth phys - logical. */
    std::array<Ring, numRegClasses> regs;
    /** Allocations and releases of each class so far, every lane's. */
    std::array<u64, numRegClasses> allocs{}, releases{};
    /** The smallest phys - logical of each class over the live lanes:
     *  an allocation deadlocks some lane iff allocs - releases reaches
     *  it. */
    std::array<u64, numRegClasses> minFree{};
    /** Latest cycle any allocation of each class returned, per lane:
     *  numRegClasses rows x padded (RegFreeList's last_). */
    std::vector<u64> regLast;
    /** Issue-queue capacity per lane, bounding an insert's scalar
     *  tail to the lane's own rows. */
    std::vector<u64> iqCap;

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
    std::vector<u64> rn, ready, issue, done, occ, t1;

    // ---- scalar sub-phases reaching into the borrowed contexts ----

    bool
    predictLane(size_t l, u32 staticId, bool taken)
    {
        return ctx[l]->bpred_.predict(staticId, taken);
    }

    /** The whole Mem-FU case for one lane: disambiguation, the cache
     *  access, store-window push.  Reads rn[l] and ready[l], writes
     *  issue[l] and done[l]. */
    void
    memAccess(size_t l, const DecodedInst &inst)
    {
        SimContext &sc = *ctx[l];
        Cycle is = ready[l];
        if (inst.has(DecodedInst::kLoad))
            is = sc.stores_.disambiguate(inst.lo, inst.hi, is, rn[l] + 1);
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
            sc.stores_.push(inst.lo, inst.hi, dn);
        issue[l] = is;
        done[l] = dn;
    }
};

} // namespace vmmx

#endif // VMMX_SIM_SIM_BATCH_HH
