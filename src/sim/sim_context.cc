#include "sim/sim_context.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/sim_batch.hh"
#include "sim/simd_dispatch.hh"

namespace vmmx
{

namespace
{

/** Records decoded per block.  Context state (register tables, ROB and
 *  store rings, cache tags) is large enough that switching contexts too
 *  often costs more than re-streaming decoded records, so blocks are
 *  sized for a 2 MiB decoded footprint: measured fastest on both short
 *  kernel traces (single block) and multi-MiB app traces, while
 *  bounding the scratch buffer for arbitrarily long traces.  The
 *  pre-decoded (DecodedStream) overload windows its pass with the same
 *  constant so both shapes step contexts in the same block pattern. */
constexpr size_t decodeBlock = 32768;

} // namespace

SimContext::SimContext(const CoreParams &params, MemorySystem *mem)
    : params_(params),
      mem_(mem),
      fetchGate_(params.way),
      renameGate_(params.way),
      commitGate_(params.way),
      iq_(params.iqSize),
      intPool_(params.intFus),
      fpPool_(params.fpFus),
      simdPool_(params.simdFus),
      simdIssuePool_(params.simdIssue),
      bpred_(params.bpredEntries),
      freeLists_{RegFreeList(params.physInt, params.logicalInt),
                 RegFreeList(params.physFp, params.logicalFp),
                 RegFreeList(params.physSimd, params.logicalSimd),
                 RegFreeList(params.physAcc, params.logicalAcc)},
      robRing_(params.robSize, 0),
      stores_(params.storeWindow)
{
    vmmx_assert(mem_ != nullptr, "simulation context needs a memory system");

    static_assert(readySlots == decodedReadySlots,
                  "ready table must match the decoded slot numbering");
    regReady_.fill(0);

    vmmx_assert(params.lanesPerFu > 0, "lanesPerFu must be positive");
    lanesOcc_[0] = 1;
    for (u16 vl = 1; vl <= 16; ++vl)
        lanesOcc_[vl] = u8((vl + params.lanesPerFu - 1) / params.lanesPerFu);
}

void
SimContext::reset()
{
    stats_ = RunStats{};
    fetchGate_.reset();
    renameGate_.reset();
    commitGate_.reset();
    iq_.reset();
    intPool_.reset();
    fpPool_.reset();
    simdPool_.reset();
    simdIssuePool_.reset();
    bpred_.reset();
    for (auto &fl : freeLists_)
        fl.reset();
    regReady_.fill(0);
    std::fill(robRing_.begin(), robRing_.end(), 0);
    stores_.reset();
    robPos_ = 0;
    lastCommit_ = 0;
    fetchRedirect_ = 0;
}

void
SimContext::step(const DecodedInst &inst)
{
    // ---- fetch ----
    Cycle fetch = fetchGate_.pass(fetchRedirect_);

    // ---- rename / dispatch ----
    Cycle rn = fetch + params_.frontDepth;

    // ROB space: the instruction robSize places earlier must have
    // committed.
    Cycle robFree = robRing_[robPos_];
    if (robFree + 1 > rn) {
        rn = robFree + 1;
        ++stats_.renameStallRob;
    }

    // Issue-queue space (VSETVL folds into rename and takes no entry).
    bool takesIq = inst.has(DecodedInst::kTakesIq);
    if (takesIq) {
        Cycle iqReady = iq_.waitForSpace(rn);
        if (iqReady > rn) {
            rn = iqReady;
            ++stats_.renameStallIq;
        }
    }

    // Physical destination register.
    if (inst.dstCls != DecodedInst::noDst) {
        RegFreeList &fl = freeLists_[inst.dstCls];
        Cycle regReady = fl.allocate(rn);
        if (regReady > rn) {
            rn = regReady;
            ++stats_.renameStallRegs;
        }
    }

    rn = renameGate_.pass(rn);

    // ---- operand readiness ----
    Cycle ready = rn + 1;
    for (unsigned s = 0; s < inst.nSrcs; ++s)
        ready = std::max(ready, regReady_[inst.srcReg[s]]);
    if (inst.has(DecodedInst::kReadsDst))
        ready = std::max(ready, regReady_[inst.dstReg]);

    // ---- issue and execute ----
    Cycle done;
    Cycle issue = ready;
    switch (static_cast<FuType>(inst.fu)) {
      case FuType::IntAlu:
        issue = intPool_.acquire(ready);
        done = issue + inst.latency;
        break;
      case FuType::IntMul:
        issue = intPool_.acquire(ready, inst.mulOcc);
        done = issue + inst.latency;
        break;
      case FuType::Fp:
        issue = fpPool_.acquire(ready);
        done = issue + inst.latency;
        break;
      case FuType::Simd: {
        // Vector instructions stream vl rows through lanesPerFu lanes.
        Cycle occ = 1;
        if (inst.vl > 0) {
            if (inst.transp)
                occ = inst.vl; // lane-exchange network
            else if (inst.vl <= 16)
                occ = lanesOcc_[inst.vl];
            else
                occ = (inst.vl + params_.lanesPerFu - 1) / params_.lanesPerFu;
        }
        issue = simdIssuePool_.acquire(ready);
        issue = simdPool_.acquire(issue, occ);
        done = issue + occ - 1 + inst.latency;
        break;
      }
      case FuType::Mem: {
        issue = ready;
        if (inst.has(DecodedInst::kLoad)) {
            // Wait for older overlapping stores still in flight.
            issue = stores_.disambiguate(inst.lo, inst.hi, issue, rn + 1);
        }
        bool isWrite = inst.has(DecodedInst::kStore);
        if (inst.has(DecodedInst::kVecMem)) {
            done = mem_->vectorAccess(inst.addr, inst.rowBytes, inst.stride,
                                      inst.rows, isWrite, issue);
        } else {
            done = mem_->scalarAccess(inst.addr, inst.rowBytes, isWrite,
                                      issue);
        }
        if (isWrite)
            stores_.push(inst.lo, inst.hi, done);
        ++stats_.memOps;
        break;
      }
      case FuType::None:
        issue = rn + 1;
        done = issue;
        break;
      default:
        panic("unknown FU type");
    }

    if (takesIq)
        iq_.insert(issue);

    // ---- writeback ----
    if (inst.dstCls != DecodedInst::noDst)
        regReady_[inst.dstReg] = done;

    // ---- branch resolution ----
    if (inst.has(DecodedInst::kBranch)) {
        ++stats_.branches;
        bool correct = inst.has(DecodedInst::kCondBr)
                           ? bpred_.predict(inst.staticId,
                                            inst.has(DecodedInst::kTaken))
                           : true; // J/CALL/RET: target known (RAS)
        if (!correct) {
            ++stats_.mispredicts;
            fetchRedirect_ =
                std::max(fetchRedirect_, done + params_.mispredictPenalty);
        }
    }

    // ---- commit (in order) ----
    Cycle cc = std::max(done + 1, lastCommit_);
    cc = commitGate_.pass(cc);

    // Cycle attribution: the interval (lastCommit_, cc] belongs to the
    // region of the committing instruction.
    Cycle delta = cc > lastCommit_ ? cc - lastCommit_ : 0;
    if (inst.region != 0)
        stats_.vectorCycles += delta;
    else
        stats_.scalarCycles += delta;
    lastCommit_ = cc;

    // Free the previous mapping of the destination's logical register.
    if (inst.dstCls != DecodedInst::noDst)
        freeLists_[inst.dstCls].release(cc);

    robRing_[robPos_] = cc;
    if (++robPos_ == robRing_.size())
        robPos_ = 0;

    ++stats_.instructions;
    ++stats_.instByClass[inst.clsIdx];
}

RunStats
SimContext::finish()
{
    stats_.cycles = lastCommit_;
    return stats_;
}

BatchRun::BatchRun(std::span<SimContext *const> ctxs) : ctxs_(ctxs)
{
    for (SimContext *ctx : ctxs) {
        vmmx_assert(ctx != nullptr, "null context in batch");
        ctx->reset();
    }
    if (ctxs.size() > 1)
        step_ = simd::stepFn(simd::activePath());
    if (step_)
        batch_ = std::make_unique<SimBatch>(ctxs);
}

BatchRun::~BatchRun() = default;

void
BatchRun::feed(std::span<const InstRecord> records)
{
    if (ctxs_.size() == 1) {
        // Single configuration: fuse decode and step so no block buffer
        // is materialized (this is the runTrace path).
        SimContext &ctx = *ctxs_[0];
        for (const InstRecord &inst : records)
            ctx.step(decodeInst(inst));
        return;
    }
    if (ctxs_.empty())
        return;

    // Batched: decode each block once, then step every context through
    // it before the next block is decoded.
    if (block_.size() < std::min(decodeBlock, records.size()))
        block_.resize(std::min(decodeBlock, records.size()));
    for (size_t base = 0; base < records.size(); base += decodeBlock) {
        size_t n = std::min(decodeBlock, records.size() - base);
        for (size_t i = 0; i < n; ++i)
            block_[i] = decodeInst(records[base + i]);
        step({block_.data(), n});
    }
}

void
BatchRun::step(std::span<const DecodedInst> block)
{
    // The SoA kernel advances every context record-major as host-SIMD
    // lanes (sim/simd_step.hh).  Without one, each context runs the
    // oracle's own step over the whole block in turn (context-major).
    // The step order per context is the same either way, so results
    // are bit-identical to the fused path above.
    if (batch_) {
        step_(*batch_, block.data(), block.size());
        return;
    }
    for (SimContext *ctx : ctxs_)
        for (const DecodedInst &inst : block)
            ctx->step(inst);
}

void
BatchRun::finish()
{
    if (batch_)
        batch_->finish();
}

} // namespace vmmx
