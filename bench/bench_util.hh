/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries: look up
 * a kernel or app trace for a flavour.
 *
 * Traces are resolved through the process-wide vmmx::TraceRepository,
 * so a bench that touches the same (workload, flavour) many times
 * generates each trace exactly once.  The helpers hand out references:
 * the repository keeps every trace it builds until clear(), which no
 * bench calls, so they stay valid for the process lifetime.  All
 * helpers are safe to call from worker threads: the repository is
 * internally locked and setQuiet() is atomic.
 */

#ifndef VMMX_BENCH_BENCH_UTIL_HH
#define VMMX_BENCH_BENCH_UTIL_HH

#include <iostream>

#include "apps/app.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "kernels/kernel.hh"
#include "trace/trace_repo.hh"

namespace vmmx::bench
{

/** Kernel trace for (name, kind) from the process-wide repository. */
inline const std::vector<InstRecord> &
kernelTrace(const std::string &kernel, SimdKind kind)
{
    return *TraceRepository::instance().kernel(kernel, kind);
}

/** App trace for (name, kind) from the process-wide repository. */
inline const std::vector<InstRecord> &
appTrace(const std::string &app, SimdKind kind)
{
    return *TraceRepository::instance().app(app, kind);
}

} // namespace vmmx::bench

#endif // VMMX_BENCH_BENCH_UTIL_HH
