/**
 * @file
 * Grid-point vocabulary (SweepPoint/SweepResult) and the shared unit
 * scheduler (groupPointsByTrace).
 *
 * Every figure in the paper is a sweep: the same few traces replayed on
 * a grid of machine configurations.  Grids are described by a StudySpec
 * (harness/study.*) and executed by runPoints() on the serial, threads
 * or processes backend of one ExecutionPolicy (harness/executor.*).
 *
 * Every point replays a Table II kernel or one of the six applications,
 * so its TraceKey (traceKeyFor) is the one identity of its trace.  What
 * this header owns is the scheduling vocabulary shared by every
 * backend: points are grouped by that key (groupPointsByTrace), and
 * each group is one schedulable unit, replayed in a single batched pass
 * by runSweepUnit -- so all backends always schedule the same units.
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

/** One grid point: a workload plus the machine that replays it. */
struct SweepPoint
{
    enum class Workload : u8 { Kernel, App };

    Workload workload = Workload::Kernel;
    /** Kernel or app name. */
    std::string name;
    SimdKind kind = SimdKind::MMX64;
    unsigned way = 2;
    /** Optional machine knob overrides (ablation studies). */
    Config overrides;

    /** e.g. "idct/vmmx128/4-way", with any ablation overrides appended
     *  ("+core.rob=64") so knob-only variants stay tellable
     *  apart in reports. */
    std::string label() const;
};

/** Repository key of @p point's trace (image size and seed are the
 *  repository defaults). */
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
 * the trace the points replay, i.e. by traceKeyFor().  Groups are
 * ordered by first appearance and keep ascending indices, so the
 * grouping is deterministic for a given grid.  These groups are the
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
