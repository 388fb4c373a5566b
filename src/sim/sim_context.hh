/**
 * @file
 * The out-of-order superscalar timing model: the per-configuration
 * SimContext and the BatchRun that steps a group of them through a
 * trace.
 *
 * The model replays a dynamic instruction trace through an
 * R10000-style pipeline: width-limited in-order fetch/rename/commit,
 * renaming against per-class physical register free lists, a windowed
 * issue queue, out-of-order issue to functional-unit pools, a gshare
 * branch predictor with a fixed redirect penalty, address-based
 * store->load disambiguation, and the two-level memory system with the
 * vector-cache path.  Vector (matrix) instructions occupy a vector unit
 * for ceil(vl / lanesPerFu) cycles; in-register transposes occupy the
 * lane exchange network for vl cycles.
 *
 * It is a single in-program-order pass that resolves each instruction's
 * fetch/rename/issue/complete/commit cycles against the reservations
 * made by older instructions -- equivalent to a cycle-driven model for
 * this machine (no speculation past unresolved branches is modelled
 * other than through the redirect penalty).
 *
 * A SimContext owns every piece of mutable per-run state of the model
 * -- the width gates, issue queue, functional-unit pools, branch
 * predictor, register free lists, ready tables, ROB ring, store window
 * and the statistics of the run in flight -- bound to one CoreParams
 * and one MemorySystem.  That is what makes batched simulation
 * possible: N contexts can be stepped against the *same* dynamic
 * instruction stream, so a sweep over N machine configurations decodes
 * and streams the trace once instead of N times.
 *
 * The decode split: everything about an InstRecord that does not depend
 * on the machine configuration is resolved once into a DecodedInst
 * (trace/decoded.hh -- a property of the trace alone, so it lives in the
 * trace layer) and shared by every context.  Only the
 * configuration-dependent arbitration (gate widths, queue and pool
 * occupancy, cache state) runs per context.
 *
 * BatchRun is the one place that steps a group through the trace: it
 * decodes each cache-resident block once, then every context steps
 * through it before the next block -- context-major over the oracle's
 * own step(), or record-major in the SoA kernel when the active host
 * SIMD path has one.  step() takes an already-decoded block, which is
 * how an already-decoded DecodedStream replays without the decode.  The
 * per-context step order is identical everywhere, so every shape is
 * bit-identical to running each context over the full trace alone, the
 * guarantee the sweep and dist layers assert.
 */

#ifndef VMMX_SIM_SIM_CONTEXT_HH
#define VMMX_SIM_SIM_CONTEXT_HH

#include <memory>
#include <span>
#include <vector>

#include "isa/inst.hh"
#include "mem/memsys.hh"
#include "sim/bpred.hh"
#include "sim/params.hh"
#include "sim/resources.hh"
#include "sim/runstats.hh"
#include "sim/simd_dispatch.hh"
#include "trace/decoded.hh"

namespace vmmx
{

/**
 * All mutable per-run state of the timing model for one machine
 * configuration.  step() advances it by one decoded instruction;
 * contexts never share state, so any interleaving of steps across
 * contexts over the same stream yields identical per-context results.
 */
class SimContext
{
    /** The SoA batch view (sim/sim_batch.hh) hoists this context's hot
     *  state into lane arrays and reaches back in for the predictor and
     *  the memory system.  It keeps its own issue queue, free lists,
     *  ROB and store window, so a batched run leaves iq_, freeLists_,
     *  robRing_ and stores_ as reset() left them. */
    friend struct SimBatch;

  public:
    /** @param mem the configuration's memory system; not owned. */
    SimContext(const CoreParams &params, MemorySystem *mem);

    /** Return to a cold pipeline and zeroed statistics.  Cache state in
     *  the memory system is left untouched (reset it separately). */
    void reset();

    /** Advance by one instruction of the shared decoded stream. */
    void step(const DecodedInst &inst);

    /** Finish the run: stamp the cycle total and return the stats. */
    RunStats finish();

    const CoreParams &params() const { return params_; }
    MemorySystem *mem() const { return mem_; }

  private:
    CoreParams params_;
    MemorySystem *mem_;

    WidthGate fetchGate_;
    WidthGate renameGate_;
    WidthGate commitGate_;
    IssueQueueModel iq_;
    SlotPool intPool_;
    SlotPool fpPool_;
    SlotPool simdPool_;
    SlotPool simdIssuePool_;
    BranchPredictor bpred_;

    std::array<RegFreeList, numRegClasses> freeLists_;

    /** Flat per-logical-register ready table: all classes side by side
     *  at fixed offsets (64 Int | 64 Fp | 64 Simd | 8 Acc), indexed by
     *  the slot numbers DecodedInst precomputes. */
    static constexpr size_t readySlots = decodedReadySlots;
    std::array<Cycle, readySlots> regReady_;

    /** Commit-cycle ring for the ROB-occupancy constraint; robPos_
     *  walks it without the modulo of the seq counter it replaced. */
    std::vector<Cycle> robRing_;
    u32 robPos_ = 0;
    /** ceil(vl / lanesPerFu) for every legal vl, precomputed so the
     *  SIMD occupancy needs no per-instruction division. */
    std::array<u8, 17> lanesOcc_;
    Cycle lastCommit_ = 0;
    Cycle fetchRedirect_ = 0;

    /** The last storeWindow stores, for store->load disambiguation. */
    StoreWindow stores_;

    RunStats stats_;
};

/**
 * The consumer of every trace stream: construct it over the contexts
 * (which it resets), feed() the records in order, then finish().  Each
 * piece is decoded in cache-resident blocks that every context steps
 * through before the next block is decoded -- a single context fuses
 * decode and step; a group steps context-major, or record-major in SoA
 * form on the AVX2 and AVX-512 paths -- so the results are
 * bit-identical to one feed() of the concatenated trace however it was
 * split.
 */
class BatchRun
{
  public:
    explicit BatchRun(std::span<SimContext *const> ctxs);
    ~BatchRun();
    BatchRun(const BatchRun &) = delete;
    BatchRun &operator=(const BatchRun &) = delete;

    void feed(std::span<const InstRecord> records);
    /** Step every context through one already-decoded block. */
    void step(std::span<const DecodedInst> block);
    /** Flush the batch state back into the contexts; collect results
     *  with SimContext::finish(). */
    void finish();

  private:
    std::span<SimContext *const> ctxs_;
    /** The SoA kernel and its view of the group; null when the group
     *  steps context-major (one context, or no SoA kernel). */
    std::unique_ptr<SimBatch> batch_;
    simd::StepFn step_ = nullptr;
    std::vector<DecodedInst> block_;
};

} // namespace vmmx

#endif // VMMX_SIM_SIM_CONTEXT_HH
