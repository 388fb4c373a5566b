/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries: look up
 * a kernel or app trace for a flavour.
 *
 * Traces are resolved through the process-wide vmmx::TraceRepository,
 * so a bench that touches the same (workload, flavour) many times
 * generates each trace exactly once.  The helpers hand out references,
 * so the first handle seen for a key is kept alive here for the process
 * lifetime; its RAII pin makes the repository's eviction skip the entry
 * even under a tiny VMMX_TRACE_CACHE_BUDGET, so the references stay
 * stable with no re-materialization churn.  All helpers are safe to
 * call from worker threads: the repository is internally locked and
 * setQuiet() is atomic.
 */

#ifndef VMMX_BENCH_BENCH_UTIL_HH
#define VMMX_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <map>
#include <mutex>
#include <tuple>

#include "apps/app.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "kernels/kernel.hh"
#include "trace/trace_repo.hh"

namespace vmmx::bench
{

/** Trace-by-reference lookup, pinned for the process lifetime. */
inline const std::vector<InstRecord> &
pinnedTrace(bool isApp, const std::string &name, SimdKind kind)
{
    TraceRepository &repo = TraceRepository::instance();
    using Key = std::tuple<bool, std::string, SimdKind>;
    static std::mutex mu;
    static std::map<Key, TraceRepository::TraceHandle> pinned;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = pinned.find({isApp, name, kind});
        if (it != pinned.end())
            return *it->second;
    }
    // Resolve outside the map lock so distinct traces generate in
    // parallel; a lost race just drops the duplicate handle.
    TraceRepository::TraceHandle h =
        isApp ? repo.app(name, kind) : repo.kernel(name, kind);
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] =
        pinned.try_emplace({isApp, name, kind}, std::move(h));
    return *it->second;
}

/** Kernel trace for (name, kind), pinned in the process-wide repository. */
inline const std::vector<InstRecord> &
kernelTrace(const std::string &kernel, SimdKind kind)
{
    return pinnedTrace(false, kernel, kind);
}

/** App trace for (name, kind), pinned in the process-wide repository. */
inline const std::vector<InstRecord> &
appTrace(const std::string &app, SimdKind kind)
{
    return pinnedTrace(true, app, kind);
}

} // namespace vmmx::bench

#endif // VMMX_BENCH_BENCH_UTIL_HH
