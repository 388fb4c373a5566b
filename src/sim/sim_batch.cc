#include "sim/sim_batch.hh"

#include <algorithm>

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

    auto zeroed = [&](std::vector<u64> &v) { v.assign(padded, 0); };
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

    regReady.assign(decodedReadySlots * padded, 0);
    lanesOcc.assign(17 * padded, 0);
    regLast.assign(numRegClasses * padded, 0);

    size_t maxInt = 0, maxFp = 0, maxSimd = 0, maxIssue = 0;
    for (size_t l = 0; l < lanes; ++l) {
        const CoreParams &p = ctx[l]->params();
        maxInt = std::max<size_t>(maxInt, p.intFus);
        maxFp = std::max<size_t>(maxFp, p.fpFus);
        maxSimd = std::max<size_t>(maxSimd, p.simdFus);
        maxIssue = std::max<size_t>(maxIssue, p.simdIssue);
    }
    auto initPool = [&](Pool &pool, size_t rows, auto slotsOf) {
        pool.rows = rows;
        pool.slots.assign(rows * padded, kInf);
        // A lane's real slots start free at cycle 0; slots it does not
        // have keep the sentinel so no min scan ever selects them.
        for (size_t l = 0; l < lanes; ++l) {
            size_t n = slotsOf(ctx[l]->params());
            for (size_t s = 0; s < n; ++s)
                pool.slots[s * padded + l] = 0;
        }
    };
    initPool(intPool, maxInt, [](const CoreParams &p) { return p.intFus; });
    initPool(fpPool, maxFp, [](const CoreParams &p) { return p.fpFus; });
    initPool(simdPool, maxSimd,
             [](const CoreParams &p) { return p.simdFus; });
    initPool(simdIssuePool, maxIssue,
             [](const CoreParams &p) { return p.simdIssue; });

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
