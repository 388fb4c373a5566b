/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  -- an invariant of the simulator itself was violated (a bug in
 *             this code base); aborts so a debugger/core dump is useful.
 * fatal()  -- the simulation cannot continue because of a user-level error
 *             (bad configuration, impossible parameters); exits cleanly.
 * warn()   -- functionality is approximated; results may still be useful.
 * inform() -- plain status message.
 */

#ifndef VMMX_COMMON_LOGGING_HH
#define VMMX_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace vmmx
{

[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn()/inform() output (used by tests, tools and workers). */
void setQuiet(bool quiet);

/** @return true when warn()/inform() output is suppressed. */
bool quiet();

/**
 * Assert a simulator invariant.  Unlike assert(3) this is active in all
 * build types: invariants of the timing model must never be compiled out.
 * The stringified condition and message are passed as %s arguments, not
 * spliced into the format string: a condition containing '%' (modulo
 * expressions are common in the cache indexing code) must never be
 * parsed as a conversion specification reading nonexistent varargs.
 */
#define vmmx_assert(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::vmmx::panic("assertion '%s' failed at %s:%d: %s", #cond,  \
                          __FILE__, __LINE__, "" #__VA_ARGS__);         \
        }                                                               \
    } while (0)

} // namespace vmmx

#endif // VMMX_COMMON_LOGGING_HH
