#include "harness/sweep.hh"

#include <map>
#include <tuple>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/executor.hh"

namespace vmmx
{

bool
sweepBatchFromEnv()
{
    return env::flag("VMMX_SWEEP_BATCH", true);
}

std::string
SweepPoint::label() const
{
    std::string s = name + "/" + vmmx::name(kind) + "/" +
                    std::to_string(way) + "-way";
    for (const auto &key : overrides.keys())
        s += "+" + key + "=" + overrides.getString(key);
    return s;
}

TraceKey
traceKeyFor(const SweepPoint &point)
{
    switch (point.workload) {
      case SweepPoint::Workload::Kernel:
        return {false, point.name, point.kind,
                TraceRepository::kernelImageBytes,
                TraceRepository::defaultSeed};
      case SweepPoint::Workload::App:
        return {true, point.name, point.kind,
                TraceRepository::appImageBytes, TraceRepository::defaultSeed};
      case SweepPoint::Workload::Trace:
        break;
    }
    panic("explicit-trace points have no repository key");
}

std::vector<std::vector<u32>>
groupPointsByTrace(const std::vector<SweepPoint> &points,
                   const std::vector<u32> &subset)
{
    // Kernel/app points resolve through the repository by (workload,
    // name, kind) -- image size and seed are the repository defaults --
    // while explicit-trace points are identified by the trace object
    // itself.
    using Key = std::tuple<u8, std::string, u8, const void *>;
    std::map<Key, size_t> index;
    std::vector<std::vector<u32>> groups;
    for (u32 i : subset) {
        const SweepPoint &p = points[i];
        Key key{static_cast<u8>(p.workload), p.name,
                static_cast<u8>(p.kind),
                static_cast<const void *>(p.trace.get())};
        auto [it, fresh] = index.try_emplace(key, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

std::vector<std::vector<u32>>
groupPointsByTrace(const std::vector<SweepPoint> &points)
{
    std::vector<u32> all(points.size());
    for (u32 i = 0; i < all.size(); ++i)
        all[i] = i;
    return groupPointsByTrace(points, all);
}

std::vector<std::vector<u32>>
buildSweepUnits(const std::vector<SweepPoint> &points,
                const std::vector<u32> &subset, bool batch)
{
    if (batch)
        return groupPointsByTrace(points, subset);
    std::vector<std::vector<u32>> units;
    units.reserve(subset.size());
    for (u32 i : subset)
        units.push_back({i});
    return units;
}

Sweep::Sweep(const SweepOptions &opts) : opts_(opts) {}

Sweep &
Sweep::addKernel(const std::string &name, SimdKind kind, unsigned way,
                 const Config &overrides)
{
    points_.push_back(
        {SweepPoint::Workload::Kernel, name, kind, way, overrides, nullptr});
    return *this;
}

Sweep &
Sweep::addApp(const std::string &name, SimdKind kind, unsigned way,
              const Config &overrides)
{
    points_.push_back(
        {SweepPoint::Workload::App, name, kind, way, overrides, nullptr});
    return *this;
}

Sweep &
Sweep::addTrace(SharedTrace trace, SimdKind kind, unsigned way,
                const std::string &label, const Config &overrides)
{
    vmmx_assert(trace != nullptr, "explicit sweep trace must be non-null");
    points_.push_back({SweepPoint::Workload::Trace, label, kind, way,
                       overrides, std::move(trace)});
    return *this;
}

Sweep &
Sweep::addKernelGrid(const std::vector<std::string> &names,
                     const std::vector<SimdKind> &kinds,
                     const std::vector<unsigned> &ways)
{
    for (const auto &n : names)
        for (auto k : kinds)
            for (auto w : ways)
                addKernel(n, k, w);
    return *this;
}

Sweep &
Sweep::addAppGrid(const std::vector<std::string> &names,
                  const std::vector<SimdKind> &kinds,
                  const std::vector<unsigned> &ways)
{
    for (const auto &n : names)
        for (auto k : kinds)
            for (auto w : ways)
                addApp(n, k, w);
    return *this;
}

ExecutionPolicy
Sweep::policy() const
{
    // fromEnv() keeps the legacy defaults (budgets, store) for knobs
    // SweepOptions never carried; the explicit options win elsewhere.
    ExecutionPolicy policy = ExecutionPolicy::fromEnv();
    policy.backend = opts_.processes > 0
                         ? ExecutionPolicy::Backend::Process
                         : ExecutionPolicy::Backend::ThreadPool;
    policy.threads = opts_.threads;
    policy.processes = opts_.processes;
    policy.batch = opts_.batch;
    policy.repo = opts_.repo;
    if (!opts_.storeDir.empty())
        policy.storeDir = opts_.storeDir;
    policy.journalPath = opts_.journalPath;
    policy.distStats = opts_.distStats;
    return policy;
}

std::vector<SweepResult>
Sweep::runSerial() const
{
    ExecutionPolicy serial = policy();
    std::vector<SweepResult> results;
    results.reserve(points_.size());
    for (const auto &point : points_)
        results.push_back(runSweepPoint(point, serial));
    return results;
}

std::vector<SweepResult>
Sweep::run() const
{
    return runPoints(points_, policy());
}

std::vector<SweepResult>
sweepTrace(const SharedTrace &trace, SimdKind kind,
           const std::vector<unsigned> &ways, const SweepOptions &opts)
{
    Sweep sweep(opts);
    for (unsigned w : ways)
        sweep.addTrace(trace, kind, w);
    return sweep.run();
}

} // namespace vmmx
