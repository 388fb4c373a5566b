/**
 * @file
 * Driver side of the distributed sweep subsystem.
 *
 * runSweep() runs a grid of SweepPoints on N worker processes as an
 * ExecutionPolicy (harness/executor.hh) describes -- it is the
 * processes case of runPoints().  Each worker is a posix_spawn of
 * ExecutionPolicy::execPath with "--worker --fd N", a binary whose main()
 * calls dist::maybeWorkerMain() first (vmmx_study and vmmx_perf start
 * themselves; the tests and examples pass "/proc/self/exe"), and speaks
 * the length-prefixed frame protocol of dist/protocol.hh over a
 * socketpair.  A worker is a fresh process image: it inherits the
 * environment (VMMX_SIMD included) but none of the driver's memory --
 * no telemetry buffers, no exit handlers.  The schedulable unit
 * is a *trace group* -- the points that replay one trace, which a
 * worker executes as a single batched pass (runSweepUnit) so the trace
 * is streamed once per group even across process boundaries, and no
 * worker keeps a trace in RAM.  Units are scheduled as the thread pool
 * schedules them: one queue of unit ids in submission order, and an
 * idle worker takes its head.  A worker runs one unit at a time and is
 * sent the next only when it has answered every point of the last, so
 * a straggler (one worker stuck on mpeg2enc) holds up nothing but its
 * own unit.
 *
 * The driver does not recover from a worker failure.  The model is
 * deterministic in each unit's TraceKey, so a unit that kills a worker
 * kills every retry of it too.  A worker that closes its socket, sends
 * a malformed or Error frame, or exits nonzero or by a signal (even
 * after its Stats reply) ends the run: the driver SIGKILLs and reaps
 * every other worker, then fails with a message naming the slot, the
 * lead point of its unit and its exit status -- as the serial and
 * threads backends die on the same error.
 *
 * Completed results are journaled to disk as they arrive (optional), so
 * a failed or interrupted sweep resumes from where it stopped: rerun
 * with the same journal path and only the missing grid points execute.
 * The journal is validated against a signature of the full grid and is
 * kept after success -- delete it to force recomputation.
 *
 * Aggregation is by submission index into a pre-sized result vector, so
 * the output order -- and, because per-job state is private and traces
 * are immutable and deterministic in their TraceKey -- every byte of the
 * results is identical to the materialize-then-replay reference
 * (runSweepPoint) on the same grid.  That same property makes resume
 * safe: re-running the missing subset of a trace group yields per-point
 * results identical to the full pass.
 */

#ifndef VMMX_DIST_DRIVER_HH
#define VMMX_DIST_DRIVER_HH

#include <string>
#include <vector>

#include "harness/executor.hh"

namespace vmmx::dist
{

/** Aggregate execution statistics of one distributed run. */
struct DistStats
{
    // Summed over all workers' private trace repositories.
    u64 generations = 0; ///< traces actually generated this run
    u64 hits = 0;        ///< raw-tier lookups served from worker RAM
    u64 diskLoads = 0;   ///< lookups served from the on-disk TraceStore
    u64 storeSaves = 0;  ///< traces newly persisted to the store
    u64 bytesResident = 0; ///< raw trace bytes held across workers at exit
    u64 decodes = 0;     ///< decoded streams built across workers
    u64 decodedHits = 0; ///< decoded-tier lookups served from worker RAM
    u64 decodedBytes = 0; ///< decoded bytes held across workers at exit
    // Driver-side scheduling counters.  Jobs count grid points (the
    // journal/aggregation unit); groups count the batched trace groups
    // those points were dispatched in.
    u64 jobsRun = 0;     ///< grid points executed by workers
    u64 jobsResumed = 0; ///< grid points restored from the journal
    u64 groupsRun = 0;   ///< work units dispatched (trace groups)
    unsigned workers = 0;
    u64 journalSkipped = 0; ///< corrupt/truncated journal entries skipped
    /** Always 0 or empty: one shared queue leaves nothing to steal, and
     *  a worker failure ends the run instead of being recovered.  Kept
     *  only because perfbench/vmmx_perf.cc still reports them; they go
     *  with ROADMAP item 1's perfbench change. */
    u64 steals = 0;
    u64 respawns = 0;
    u64 retries = 0;
    std::vector<u32> quarantinedPoints;
    u64 abnormalExits = 0;

    std::string summary() const;
};

/** Publish a run's aggregate counters as "dist.*" gauges (and the
 *  worker repositories' tier aggregate as "repo.*" gauges) in the
 *  process-wide telemetry registry, for --metrics-json exports. */
void publishMetrics(const DistStats &st);

/** Stable signature of a grid (journal validation). */
u64 gridSignature(const std::vector<SweepPoint> &points);

/**
 * Run every point of @p points across worker processes as @p policy
 * describes (processes, store, journal, worker binary) and return
 * the results in submission order, bit-identical to the serial
 * reference; statistics go to policy.distStats when set, and workers
 * are quiet when vmmx::quiet() is.  An empty execPath, a binary that
 * cannot be started and a worker failure are fatal (see above); an
 * interrupted or failed journaled run resumes on the next invocation.
 * VMMX_JOURNAL_SYNC=1 fdatasync()s every journal entry.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepPoint> &points,
                                  const ExecutionPolicy &policy);

} // namespace vmmx::dist

#endif // VMMX_DIST_DRIVER_HH
