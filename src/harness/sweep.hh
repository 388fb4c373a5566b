/**
 * @file
 * Grid-point vocabulary (SweepPoint/SweepResult) and the shared unit
 * scheduler (groupPointsByTrace).
 *
 * Every figure in the paper is a sweep: the same few traces replayed on
 * a grid of machine configurations.  Grids are described by a StudySpec
 * (harness/study.*) and executed by the pluggable Serial/ThreadPool/
 * Process backends over one ExecutionPolicy (harness/executor.*).
 *
 * What this header owns is the scheduling vocabulary shared by every
 * backend: points are grouped by the trace they replay
 * (groupPointsByTrace), and each group is one schedulable unit, replayed
 * in a single batched pass -- so all backends always shard the same
 * way.
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

/**
 * Indices of @p subset (submission indices into @p points) grouped by
 * the trace the points replay: kernel/app points group by (workload,
 * name, flavour); explicit-trace points group by the trace object.
 * Groups are ordered by first appearance and keep ascending indices, so
 * the grouping is deterministic for a given grid.  These groups are the
 * units every backend schedules.
 */
std::vector<std::vector<u32>>
groupPointsByTrace(const std::vector<SweepPoint> &points,
                   const std::vector<u32> &subset);

/** Group every point of @p points (subset = the whole grid). */
std::vector<std::vector<u32>>
groupPointsByTrace(const std::vector<SweepPoint> &points);

} // namespace vmmx

#endif // VMMX_HARNESS_SWEEP_HH
