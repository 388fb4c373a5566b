#include "harness/sweep.hh"

#include <map>

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
    if (point.workload == SweepPoint::Workload::App)
        return {true, point.name, point.kind,
                TraceRepository::appImageBytes, TraceRepository::defaultSeed};
    return {false, point.name, point.kind, TraceRepository::kernelImageBytes,
            TraceRepository::defaultSeed};
}

std::vector<std::vector<u32>>
groupPointsByTrace(const std::vector<SweepPoint> &points,
                   const std::vector<u32> &subset)
{
    std::map<TraceKey, size_t> index;
    std::vector<std::vector<u32>> groups;
    for (u32 i : subset) {
        auto [it, fresh] =
            index.try_emplace(traceKeyFor(points[i]), groups.size());
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
