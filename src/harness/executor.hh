/**
 * @file
 * Execution of grid studies: one ExecutionPolicy describing *how* a
 * grid should run, and runPoints(), which switches on its backend --
 *
 *   serial     the calling thread, unit by unit (the reference
 *              ordering every backend must match)
 *   threads    an in-process pool pulling units off a shared counter
 *   processes  worker processes handed units off one queue over the
 *              src/dist/ frame protocol, traces shared through the
 *              on-disk TraceStore (dist::runSweep)
 *
 * All three schedule the same units -- the trace groups of
 * groupPointsByTrace() -- each replayed in one batched pass by
 * runSweepUnit(), which the threads backend and the dist worker call.
 * The serial backend differs only in where the blocks come from: a
 * producer thread streams the traces one ring of blocks ahead of the
 * simulation.  Every backend
 * writes results into submission-order slots, so for any grid and any
 * policy the three result vectors are bit-identical -- asserted by
 * tests/test_study.cc and CI.  A new backend is one more case of
 * runPoints() over those units; nothing above it has to change.
 *
 * Every unit replays its trace as a stream (replayUnit): the trace goes
 * from the generator or the trace store straight into the group's
 * batched step in 32K-record blocks and is never held whole.
 *
 * Every declarative knob is a spec key.  The one runtime-only
 * environment knob, VMMX_JOURNAL_SYNC, is read where the processes
 * backend opens its journal (dist::runSweep).
 */

#ifndef VMMX_HARNESS_EXECUTOR_HH
#define VMMX_HARNESS_EXECUTOR_HH

#include <span>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace vmmx
{

namespace dist
{
struct DistStats; // dist/driver.hh
}

/**
 * How to execute a grid: backend choice plus every knob the backends
 * understand.  The declarative subset (everything up to journalPath)
 * round-trips through the [exec] section of a study spec file; the
 * trailing pointers are runtime-only wiring and never serialized.
 */
struct ExecutionPolicy
{
    enum class Backend : u8 { Serial, ThreadPool, Process };

    Backend backend = Backend::ThreadPool;
    /** ThreadPool worker threads; 0 = hardware_concurrency(). */
    unsigned threads = 0;
    /** Process backend worker count (>= 1). */
    unsigned processes = 2;
    /** Trace store directory (Process backend); "" = default dir. */
    std::string storeDir;
    /** Crash-resume journal (Process backend); "" = no journal. */
    std::string journalPath;

    // ---- runtime-only wiring (not part of the declarative spec) ------
    /** Repository to resolve traces against; null = the process-wide
     *  TraceRepository::instance(). */
    TraceRepository *repo = nullptr;
    /** Optional out-param for Process-backend statistics. */
    dist::DistStats *distStats = nullptr;
    /** Worker binary of the Process backend, which starts each worker
     *  as `execPath --worker --fd N`; its main() must call
     *  dist::maybeWorkerMain() first.  Required there: "" is fatal.
     *  vmmx_study names itself; tests and examples "/proc/self/exe". */
    std::string execPath;

    /** The repository this policy resolves traces through. */
    TraceRepository &repository() const;

    /** Declarative-field equality (runtime wiring excluded); what the
     *  spec-file round-trip preserves. */
    bool operator==(const ExecutionPolicy &o) const
    {
        return backend == o.backend && threads == o.threads &&
               processes == o.processes && storeDir == o.storeDir &&
               journalPath == o.journalPath;
    }
};

/** Spec-file spelling of a backend ("serial", "threads", "processes"). */
const char *name(ExecutionPolicy::Backend b);
/** Parse a backend name. @return false on unknown names. */
bool parseBackend(const std::string &text, ExecutionPolicy::Backend &b);

/**
 * Run every point of @p points on the backend @p policy names and
 * return the results in submission order, bit-identical across
 * backends.  May be called concurrently with distinct grids.  A store
 * directory or journal on any backend but processes is fatal.
 */
std::vector<SweepResult> runPoints(const std::vector<SweepPoint> &points,
                                   const ExecutionPolicy &policy);

/**
 * Replay @p lead's trace on every machine in @p machines in one
 * streamed pass and return the results in @p machines order;
 * @p traceLength receives the record count.  The repository streams
 * the trace without retaining it (TraceRepository::stream);
 * runSweepUnit() replays every unit through this.
 */
std::vector<RunResult> replayUnit(const SweepPoint &lead,
                                  std::span<const MachineConfig> machines,
                                  TraceRepository &repo, u64 &traceLength);

/**
 * Run one grid point on the calling thread the reference way: resolve
 * the whole trace through tier 1, then replay it.  A loop over the grid
 * is the materialize-then-replay oracle every backend is checked
 * against (vmmx_study --check and the tests).
 */
SweepResult runSweepPoint(const SweepPoint &point,
                          const ExecutionPolicy &policy);

/**
 * Run one schedulable unit -- points of @p points replaying one trace,
 * in a single batched pass -- writing into the submission-order slots
 * of @p results.  The one unit runner: the threads backend and the
 * dist worker call it.
 */
void runSweepUnit(const std::vector<SweepPoint> &points,
                  const std::vector<u32> &unit,
                  const ExecutionPolicy &policy,
                  std::vector<SweepResult> &results);

} // namespace vmmx

#endif // VMMX_HARNESS_EXECUTOR_HH
