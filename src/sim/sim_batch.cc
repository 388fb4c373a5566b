#include "sim/sim_batch.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace vmmx
{

namespace
{

/** Registers of each class free before the first rename: the
 *  initialFree of the context's RegFreeList, in RegClass order. */
std::array<u64, numRegClasses>
initialFree(const CoreParams &p)
{
    return {p.physInt - p.logicalInt, p.physFp - p.logicalFp,
            p.physSimd - p.logicalSimd, p.physAcc - p.logicalAcc};
}

} // namespace

SimBatch::SimBatch(std::span<SimContext *const> ctxs)
{
    lanes = ctxs.size();
    padded = (lanes + padLanes - 1) / padLanes * padLanes;
    ctx.assign(ctxs.begin(), ctxs.end());

    auto zeroed = [&](LaneVec &v) { v.assign(padded, 0); };
    zeroed(gateW);
    zeroed(frontDepth);
    zeroed(penalty);
    zeroed(lanesPerFu);
    zeroed(fCur);
    zeroed(fUsed);
    zeroed(rCur);
    zeroed(rUsed);
    zeroed(cCur);
    zeroed(cUsed);
    zeroed(redirect);
    zeroed(lastCommit);
    zeroed(iqCap);
    zeroed(stallRob);
    zeroed(stallIq);
    zeroed(stallRegs);
    zeroed(mispredicts);
    zeroed(scalarCyc);
    zeroed(vectorCyc);
    zeroed(rn);
    zeroed(ready);
    zeroed(issue);
    zeroed(done);
    zeroed(occ);
    zeroed(t1);
    zeroed(start);

    regReady.assign(decodedReadySlots * padded, 0);
    lanesOcc.assign(17 * padded, 0);
    regLast.assign(numRegClasses * padded, 0);

    // The widest lane's value of a per-lane parameter.
    auto widest = [&](auto valueOf) {
        size_t most = 0;
        for (size_t l = 0; l < lanes; ++l)
            most = std::max<size_t>(most, valueOf(l));
        return most;
    };
    auto initPool = [&](Pool &pool, auto slotsOf) {
        pool.rows = widest(slotsOf);
        pool.slots.assign(pool.rows * padded, kInf);
        // A lane's real slots start free at cycle 0; slots it does not
        // have keep the sentinel so no min scan ever selects them.
        for (size_t l = 0; l < lanes; ++l) {
            size_t n = slotsOf(l);
            for (size_t s = 0; s < n; ++s)
                pool.slots[s * padded + l] = 0;
        }
    };
    auto core = [&](size_t l) -> const CoreParams & {
        return ctx[l]->params();
    };
    initPool(intPool, [&](size_t l) { return core(l).intFus; });
    initPool(fpPool, [&](size_t l) { return core(l).fpFus; });
    initPool(simdPool, [&](size_t l) { return core(l).simdFus; });
    initPool(simdIssuePool, [&](size_t l) { return core(l).simdIssue; });

    // The L1 front end: MemorySystem::reserveL1's ports and banks.
    auto l1 = [&](size_t l) -> const MemParams & {
        return ctx[l]->mem()->params();
    };
    initPool(l1Ports, [&](size_t l) { return l1(l).l1Ports; });
    l1Banks.assign(widest([&](size_t l) { return l1(l).l1Banks; }) * padded,
                   0);

    // The store window: one row per push the widest window holds.
    size_t widestWindow =
        widest([&](size_t l) { return core(l).storeWindow; });
    stores.rows = widestWindow ? std::bit_ceil(widestWindow) : 0;
    stores.footprint.resize(stores.rows);
    stores.done.assign(stores.rows * padded, 0);
    zeroed(stores.window);
    for (size_t l = 0; l < lanes; ++l)
        stores.window[l] = core(l).storeWindow;

    // Each ring is max(minRows, the deepest lane's depth) + spare rows.
    // Pad lanes read the write row itself: any in-range row would do.
    auto initRing = [&](Ring &ring, size_t minRows, size_t spare,
                        auto depthOf) {
        size_t deepest = minRows;
        for (size_t l = 0; l < lanes; ++l)
            deepest = std::max<size_t>(deepest, depthOf(ctx[l]->params()));
        ring.rows = deepest + spare;
        ring.slots.assign(ring.rows * padded, 0);
        ring.readOff.assign(padded, 0);
        for (size_t l = 0; l < padded; ++l) {
            size_t depth =
                l < lanes ? depthOf(ctx[l]->params()) : ring.rows;
            ring.readOff[l] = (ring.rows - depth) * padded + l;
        }
    };
    initRing(rob, 1, 0, [](const CoreParams &p) { return p.robSize; });
    // The vector insert rewrites iqWindow rows under the write row and
    // reads the one below them.
    initRing(iq, iqWindow, 1,
             [](const CoreParams &p) { return p.iqSize; });
    for (unsigned k = 0; k < numRegClasses; ++k) {
        initRing(regs[k], 1, 0,
                 [k](const CoreParams &p) { return initialFree(p)[k]; });
        minFree[k] = ~u64(0);
        for (size_t l = 0; l < lanes; ++l)
            minFree[k] = std::min(minFree[k],
                                  initialFree(ctx[l]->params())[k]);
    }

    bpredShared = true;
    for (size_t l = 0; l < lanes; ++l) {
        SimContext &sc = *ctx[l];
        const CoreParams &p = sc.params();
        gateW[l] = p.way;
        frontDepth[l] = p.frontDepth;
        penalty[l] = p.mispredictPenalty;
        lanesPerFu[l] = p.lanesPerFu;
        iqCap[l] = p.iqSize;
        for (size_t vl = 0; vl < sc.lanesOcc_.size(); ++vl)
            lanesOcc[vl * padded + l] = sc.lanesOcc_[vl];
        if (p.bpredEntries != ctx[0]->params().bpredEntries)
            bpredShared = false;
    }
    // Pad lanes ride along in every vector op but are never read back;
    // give them a benign gate width so their state stays small.
    for (size_t l = lanes; l < padded; ++l)
        gateW[l] = 1;
}

void
SimBatch::finish()
{
    for (size_t l = 0; l < lanes; ++l) {
        SimContext &sc = *ctx[l];
        sc.lastCommit_ = lastCommit[l];
        sc.fetchRedirect_ = redirect[l];
        RunStats &st = sc.stats_;
        st.instructions = instructions;
        st.branches = branches;
        st.memOps = memOps;
        st.instByClass = instByClass;
        st.mispredicts = mispredicts[l];
        st.renameStallRob = stallRob[l];
        st.renameStallIq = stallIq[l];
        st.renameStallRegs = stallRegs[l];
        st.scalarCycles = scalarCyc[l];
        st.vectorCycles = vectorCyc[l];
    }
}

} // namespace vmmx
