#include "sim/sim_batch.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vmmx
{

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
    zeroed(robPos);
    zeroed(robSize);
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
    zeroed(cc);
    zeroed(occ);
    zeroed(robFree);
    zeroed(t1);

    regReady.assign(decodedReadySlots * padded, 0);
    lanesOcc.assign(17 * padded, 0);
    robRing.assign(padded, nullptr);

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

    bpredShared = true;
    for (size_t l = 0; l < lanes; ++l) {
        SimContext &sc = *ctx[l];
        const CoreParams &p = sc.params();
        gateW[l] = p.way;
        frontDepth[l] = p.frontDepth;
        penalty[l] = p.mispredictPenalty;
        lanesPerFu[l] = p.lanesPerFu;
        for (size_t vl = 0; vl < sc.lanesOcc_.size(); ++vl)
            lanesOcc[vl * padded + l] = sc.lanesOcc_[vl];
        robRing[l] = sc.robRing_.data();
        robPos[l] = sc.robPos_;
        robSize[l] = sc.robRing_.size();
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
        sc.robPos_ = u32(robPos[l]);
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
