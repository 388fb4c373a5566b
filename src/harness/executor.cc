#include "harness/executor.hh"

#include <atomic>
#include <thread>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/wire.hh"
#include "sim/simd_dispatch.hh"

namespace vmmx
{

namespace
{

/**
 * The bookkeeping around one unit's replay -- its machines, the
 * telemetry span and unit record, and its submission-order result
 * slots.  @p replay runs the machines over the unit's trace and reports
 * the trace length.
 */
template <typename Replay>
void
runUnit(const std::vector<SweepPoint> &points, const std::vector<u32> &unit,
        std::vector<SweepResult> &results, Replay &&replay)
{
    std::vector<MachineConfig> machines;
    machines.reserve(unit.size());
    for (u32 i : unit)
        machines.push_back(makeMachine(points[i].kind, points[i].way,
                                       points[i].overrides));
    u64 unitStartNs = telemetry::enabled() ? telemetry::nowNs() : 0;
    std::string leadLabel =
        telemetry::enabled() ? points[unit[0]].label() : std::string();
    u64 traceLength = 0;
    std::vector<RunResult> runs;
    {
        TELEMETRY_SPAN("simulate",
                       leadLabel.empty()
                           ? std::string()
                           : leadLabel + " simd=" +
                                 simd::pathName(simd::pathFor(unit.size())));
        runs = replay(std::span<const MachineConfig>(machines), traceLength);
    }
    if (telemetry::enabled()) {
        telemetry::UnitRecord rec;
        rec.traceHash = wire::fnv1a(leadLabel.data(), leadLabel.size());
        rec.label = leadLabel;
        rec.points = u32(unit.size());
        rec.records = traceLength;
        rec.wallNs = telemetry::nowNs() - unitStartNs;
        // Attribute the unit's throughput to the step kernel that
        // produced it: width-1 units take the fused serial (scalar)
        // step, wider units the dispatched host-SIMD path.
        rec.simd = simd::pathName(simd::pathFor(unit.size()));
        telemetry::Registry::instance().addUnit(std::move(rec));
    }
    for (size_t k = 0; k < unit.size(); ++k) {
        SweepResult &r = results[unit[k]];
        r.point = points[unit[k]];
        r.traceLength = traceLength;
        r.result = runs[k];
    }
}

/** The resolved thread count of @p policy, capped at @p units. */
unsigned
effectiveThreads(const ExecutionPolicy &policy, size_t units)
{
    unsigned threads = policy.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    return std::min<unsigned>(threads, unsigned(units));
}

/**
 * The serial schedule.  One producer walks the units ahead of the
 * calling thread, streaming trace after trace into a ring a few blocks
 * deep, so generating the next blocks overlaps stepping the current
 * ones.  Unit order, simulation and results stay on the calling thread.
 */
std::vector<SweepResult>
runSerial(const std::vector<SweepPoint> &points,
          const ExecutionPolicy &policy)
{
    std::vector<std::vector<u32>> units = groupPointsByTrace(points);
    TraceRepository &repo = policy.repository();
    TraceRing ring;
    std::thread producer([&] {
        try {
            for (const std::vector<u32> &unit : units) {
                repo.stream(traceKeyFor(points[unit[0]]), ring);
                ring.endTrace();
            }
        } catch (...) {
            ring.fail(std::current_exception());
        }
    });
    // Join on every way out of this function; closing the ring first
    // releases a producer still waiting for room.
    struct Joiner
    {
        TraceRing &ring;
        std::thread &thread;
        ~Joiner()
        {
            ring.close();
            thread.join();
        }
    } joiner{ring, producer};

    std::vector<SweepResult> results(points.size());
    for (const std::vector<u32> &unit : units) {
        runUnit(points, unit, results,
                [&](std::span<const MachineConfig> machines,
                    u64 &traceLength) {
                    TraceReplay replay(machines);
                    ring.drain(replay);
                    traceLength = replay.records();
                    return replay.finish();
                });
    }
    return results;
}

/**
 * The thread-pool schedule: workers pull the next undone unit off a
 * shared counter and write into its submission-order slots, so the
 * result vector is deterministic.  Units are independent
 * (per-configuration MemorySystem/SimContext, immutable shared trace
 * artifacts).  One effective thread is the serial schedule, producer
 * ring included.
 */
std::vector<SweepResult>
runThreadPool(const std::vector<SweepPoint> &points,
              const ExecutionPolicy &policy)
{
    std::vector<std::vector<u32>> units = groupPointsByTrace(points);
    unsigned threads = effectiveThreads(policy, units.size());
    if (threads <= 1)
        return runSerial(points, policy);

    std::vector<SweepResult> results(points.size());
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (size_t u = next.fetch_add(1); u < units.size();
             u = next.fetch_add(1))
            runSweepUnit(points, units[u], policy, results);
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return results;
}

} // namespace

TraceRepository &
ExecutionPolicy::repository() const
{
    return repo ? *repo : TraceRepository::instance();
}

const char *
name(ExecutionPolicy::Backend b)
{
    switch (b) {
      case ExecutionPolicy::Backend::Serial: return "serial";
      case ExecutionPolicy::Backend::ThreadPool: return "threads";
      case ExecutionPolicy::Backend::Process: return "processes";
    }
    panic("bad backend %d", int(b));
}

bool
parseBackend(const std::string &text, ExecutionPolicy::Backend &b)
{
    if (text == "serial")
        b = ExecutionPolicy::Backend::Serial;
    else if (text == "threads")
        b = ExecutionPolicy::Backend::ThreadPool;
    else if (text == "processes")
        b = ExecutionPolicy::Backend::Process;
    else
        return false;
    return true;
}

std::vector<RunResult>
replayUnit(const SweepPoint &lead, std::span<const MachineConfig> machines,
           TraceRepository &repo, u64 &traceLength)
{
    TraceReplay replay(machines);
    repo.stream(traceKeyFor(lead), replay);
    traceLength = replay.records();
    return replay.finish();
}

SweepResult
runSweepPoint(const SweepPoint &point, const ExecutionPolicy &policy)
{
    TraceRepository::TraceHandle trace =
        policy.repository().raw(traceKeyFor(point));
    SweepResult r;
    r.point = point;
    r.traceLength = trace->size();
    r.result =
        runTrace(makeMachine(point.kind, point.way, point.overrides), *trace);
    return r;
}

void
runSweepUnit(const std::vector<SweepPoint> &points,
             const std::vector<u32> &unit, const ExecutionPolicy &policy,
             std::vector<SweepResult> &results)
{
    runUnit(points, unit, results,
            [&](std::span<const MachineConfig> machines, u64 &traceLength) {
                return replayUnit(points[unit[0]], machines,
                                  policy.repository(), traceLength);
            });
}

std::vector<SweepResult>
runPoints(const std::vector<SweepPoint> &points,
          const ExecutionPolicy &policy)
{
    // Only the processes backend reads these; elsewhere they would be
    // accepted and then silently ignored.
    const char *unread = !policy.storeDir.empty()      ? "exec.store"
                         : !policy.journalPath.empty() ? "exec.journal"
                                                       : nullptr;
    if (unread && policy.backend != ExecutionPolicy::Backend::Process)
        fatal("%s is read only by the processes backend, not %s", unread,
              name(policy.backend));
    switch (policy.backend) {
      case ExecutionPolicy::Backend::Serial:
        return runSerial(points, policy);
      case ExecutionPolicy::Backend::ThreadPool:
        return runThreadPool(points, policy);
      case ExecutionPolicy::Backend::Process:
        return dist::runSweep(points, policy);
    }
    panic("bad backend %d", int(policy.backend));
}

} // namespace vmmx
