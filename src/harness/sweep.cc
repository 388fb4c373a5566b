#include "harness/sweep.hh"

#include <map>
#include <tuple>

#include "common/logging.hh"

namespace vmmx
{

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

} // namespace vmmx
