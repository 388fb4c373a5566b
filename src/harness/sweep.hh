/**
 * @file
 * Grid-point vocabulary (SweepPoint/SweepResult), the shared unit
 * scheduler (buildSweepUnits), and the legacy Sweep front end.
 *
 * Every figure in the paper is a sweep: the same few traces replayed on
 * a grid of machine configurations.  The execution machinery lives in
 * harness/executor.* (pluggable Serial/ThreadPool/Process backends over
 * one ExecutionPolicy) with the declarative front end in
 * harness/study.* -- new code should start there.  Sweep remains as a
 * thin compatibility wrapper for one release: it still collects grid
 * points imperatively and its run() maps SweepOptions onto an
 * ExecutionPolicy and dispatches through the same executors, so the old
 * and new APIs are bit-identical by construction.
 *
 * What this header still owns outright is the scheduling vocabulary
 * shared by every backend: points are grouped by the trace they replay
 * (groupPointsByTrace) and formed into schedulable units
 * (buildSweepUnits) -- whole trace groups when batching, single points
 * otherwise -- so all backends always shard the same way.
 */

#ifndef VMMX_HARNESS_SWEEP_HH
#define VMMX_HARNESS_SWEEP_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/machine.hh"
#include "harness/runner.hh"
#include "trace/trace_repo.hh"

namespace vmmx
{

namespace dist
{
struct DistStats;
}

struct ExecutionPolicy; // harness/executor.hh

/** One grid point: a trace source plus the machine that replays it. */
struct SweepPoint
{
    enum class Workload : u8 { Kernel, App, Trace };

    Workload workload = Workload::Kernel;
    /** Kernel or app name; a display label for explicit traces. */
    std::string name;
    SimdKind kind = SimdKind::MMX64;
    unsigned way = 2;
    /** Optional machine knob overrides (ablation studies). */
    Config overrides;
    /** Pre-resolved trace (Workload::Trace only). */
    SharedTrace trace;

    /** e.g. "idct/vmmx128/4-way", with any ablation overrides appended
     *  ("+core.robEntries=64") so knob-only variants stay tellable
     *  apart in bench output. */
    std::string label() const;
};

/** Repository key of a kernel/app point (image size and seed are the
 *  repository defaults).  Asserts on Workload::Trace points, whose
 *  identity is the trace object itself. */
TraceKey traceKeyFor(const SweepPoint &point);

/** Result of one grid point, in submission order. */
struct SweepResult
{
    SweepPoint point;
    RunResult result;
    u64 traceLength = 0;

    Cycle cycles() const { return result.cycles(); }

    /** Ignores the echoed point: two results match when the timing and
     *  statistics of the runs are bit-identical. */
    bool sameRun(const SweepResult &o) const
    {
        return result == o.result && traceLength == o.traceLength;
    }
};

/** Default for SweepOptions::batch: $VMMX_SWEEP_BATCH via env::flag()
 *  (common/env.hh, the one environment parser); unset = on. */
bool sweepBatchFromEnv();

/** Legacy execution knobs; Sweep::run() maps these onto an
 *  ExecutionPolicy (harness/executor.hh), which new code should use
 *  directly. */
struct SweepOptions
{
    /** Worker threads; 0 picks std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    /** Trace repository to resolve against; null uses the process-wide
     *  one (TraceRepository::instance()). */
    TraceRepository *repo = nullptr;
    /** Group points by trace and run each group as one batched pass
     *  (runTraceBatch).  Off: one runTrace job per point, as before the
     *  batched engine.  Results are bit-identical either way. */
    bool batch = sweepBatchFromEnv();

    // ---- multi-process backend (src/dist/) ---------------------------
    /** Worker process count; 0 stays on the in-process thread pool.
     *  When > 0, run() shards the grid across forked worker processes
     *  that share traces through the on-disk TraceStore; results remain
     *  bit-identical to the serial loop.  With batch on, sharding is by
     *  trace group, so workers batch too. */
    unsigned processes = 0;
    /** Trace store directory; "" uses TraceStore::defaultDir(). */
    std::string storeDir;
    /** Crash-resume journal file; "" disables journaling. */
    std::string journalPath;
    /** Optional out-param for the distributed run's statistics. */
    dist::DistStats *distStats = nullptr;
};

/**
 * Indices of @p subset (submission indices into @p points) grouped by
 * the trace the points replay: kernel/app points group by (workload,
 * name, flavour); explicit-trace points group by the trace object.
 * Groups are ordered by first appearance and keep ascending indices, so
 * the grouping is deterministic for a given grid.
 */
std::vector<std::vector<u32>>
groupPointsByTrace(const std::vector<SweepPoint> &points,
                   const std::vector<u32> &subset);

/** Group every point of @p points (subset = the whole grid). */
std::vector<std::vector<u32>>
groupPointsByTrace(const std::vector<SweepPoint> &points);

/**
 * The schedulable units of a sweep over @p subset: whole trace groups
 * when @p batch, one point per unit otherwise.  Shared by the
 * thread-pool engine and the multi-process driver so both backends
 * always form units the same way.
 */
std::vector<std::vector<u32>>
buildSweepUnits(const std::vector<SweepPoint> &points,
                const std::vector<u32> &subset, bool batch);

/**
 * Imperative grid builder and runner (compatibility wrapper over the
 * Study/Executor machinery; see the file comment).
 */
class Sweep
{
  public:
    explicit Sweep(const SweepOptions &opts = {});

    // ---- grid construction ------------------------------------------
    Sweep &addKernel(const std::string &name, SimdKind kind, unsigned way,
                     const Config &overrides = {});
    Sweep &addApp(const std::string &name, SimdKind kind, unsigned way,
                  const Config &overrides = {});
    /** Replay an explicit trace (custom programs, tests). */
    Sweep &addTrace(SharedTrace trace, SimdKind kind, unsigned way,
                    const std::string &label = "trace",
                    const Config &overrides = {});

    /** Cross product helpers for the common grid shapes. */
    Sweep &addKernelGrid(const std::vector<std::string> &names,
                         const std::vector<SimdKind> &kinds,
                         const std::vector<unsigned> &ways);
    Sweep &addAppGrid(const std::vector<std::string> &names,
                      const std::vector<SimdKind> &kinds,
                      const std::vector<unsigned> &ways);

    size_t size() const { return points_.size(); }
    const std::vector<SweepPoint> &points() const { return points_; }

    // ---- execution ---------------------------------------------------
    /**
     * Run every point and return results in submission order.  Uses the
     * configured thread count; a count of 1 (or a single-job sweep)
     * stays on the calling thread.
     */
    std::vector<SweepResult> run() const;

    /** Reference serial per-point loop on the calling thread (the
     *  determinism baseline): every trace is resolved whole through the
     *  repository's tier 1, then replayed -- materialize-then-replay,
     *  never batched or streamed. */
    std::vector<SweepResult> runSerial() const;

  private:
    /** The ExecutionPolicy equivalent of opts_ (fromEnv() defaults with
     *  the explicit options layered on top). */
    ExecutionPolicy policy() const;

    SweepOptions opts_;
    std::vector<SweepPoint> points_;
};

/** Convenience: sweep a single explicit trace over (kind, way) machines. */
std::vector<SweepResult>
sweepTrace(const SharedTrace &trace, SimdKind kind,
           const std::vector<unsigned> &ways,
           const SweepOptions &opts = {});

} // namespace vmmx

#endif // VMMX_HARNESS_SWEEP_HH
