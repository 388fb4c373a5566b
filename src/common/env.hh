/**
 * @file
 * The one place environment variables are parsed.
 *
 * Every VMMX_* knob used to have its own ad-hoc parser (the sweep
 * engine's flag reader, the CLI front ends); they all live here now so
 * a flag spelled "off" means the same thing to every consumer, and so
 * garbage input is diagnosed once, the same way, everywhere.
 *
 * Policy: an unset or empty variable always means "use the built-in
 * default"; an unparsable value warns once at the call site and falls
 * back to the default rather than aborting, because environment
 * variables are ambient state a user may not even know is set.
 */

#ifndef VMMX_COMMON_ENV_HH
#define VMMX_COMMON_ENV_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace vmmx::env
{

/**
 * Parse an on/off flag: "1"/"on"/"true"/"yes" and "0"/"off"/"false"/
 * "no" (case-sensitive, as documented everywhere the knobs appear).
 * @return false when @p text is null, empty, or none of the above.
 */
bool parseFlag(const char *text, bool &value);

/** Flag from the environment; unset/empty = @p dflt, junk warns and
 *  falls back to @p dflt. */
bool flag(const char *var, bool dflt);

/**
 * Parse a plain decimal count into an unsigned.  Rejects negatives
 * (strtoul would silently wrap them) and values that overflow unsigned.
 * @return false on junk; @p value is untouched then.
 */
bool parseUnsigned(const char *text, unsigned &value);

/** String from the environment; unset or empty = @p dflt. */
std::string str(const char *var, const std::string &dflt = "");

// ---- deterministic fault injection --------------------------------------

/**
 * One directive of a $VMMX_FAULT_SPEC: a named fault, an optional
 * numeric argument, and an optional worker scope.  The spec is a
 * comma-separated list of `name[=value][@workerN]` directives, where N
 * is the spawn ordinal of the worker the fault applies to (respawned
 * replacements get fresh ordinals, so a scoped fault fires exactly
 * once); an unscoped directive applies to every worker.
 *
 * Directives (honored by dist/worker.cc, at the frame layer for
 * CorruptFrame):
 *
 *   kill-after-units=N   _exit(137) when unit N+1 arrives (N complete
 *                        units answered; N = 0 dies on the first unit)
 *   kill-mid-unit=N      run the Nth unit (1-based arrival order) but
 *                        _exit(137) after sending only half its results
 *   kill-on-point=I      _exit(137) whenever a received unit contains
 *                        grid point I -- with an unscoped spec, the
 *                        unit kills every worker it reaches, which is
 *                        the driver's quarantine trigger
 *   corrupt-frame=N      wreck the type byte of the Nth result frame
 *                        this worker sends (the driver must recover
 *                        from the undecodable frame)
 *   stall[=N]            hang forever upon receiving unit N (default
 *                        the first); only the driver's per-unit
 *                        deadline can recover
 *   exit-code=C          finish the session normally but exit with
 *                        status C instead of 0 (exercises the
 *                        post-run abnormal-exit accounting)
 */
struct FaultAction
{
    enum class Kind : u8
    {
        KillAfterUnits,
        KillMidUnit,
        KillOnPoint,
        CorruptFrame,
        Stall,
        ExitCode,
    };

    Kind kind = Kind::Stall;
    u64 value = 0;
    /** Spawn ordinal this directive applies to; -1 = every worker. */
    s64 worker = -1;

    bool applies(u64 workerId) const
    {
        return worker < 0 || u64(worker) == workerId;
    }
};

/**
 * Parse a fault spec (see FaultAction).  Null or empty parses to an
 * empty plan.  @return false on junk with a description in @p err;
 * @p plan is meaningful only on success.
 */
bool parseFaultSpec(const char *text, std::vector<FaultAction> &plan,
                    std::string &err);

} // namespace vmmx::env

#endif // VMMX_COMMON_ENV_HH
