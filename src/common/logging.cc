#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace vmmx
{

namespace
{
/** Atomic so sweep worker threads and tool mains can race setQuiet()
 *  against warn()/inform() without UB. */
std::atomic<bool> quietFlag{false};

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}
} // namespace

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

} // namespace vmmx
