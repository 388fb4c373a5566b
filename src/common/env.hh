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

} // namespace vmmx::env

#endif // VMMX_COMMON_ENV_HH
