#include "common/env.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace vmmx::env
{

bool
parseFlag(const char *text, bool &value)
{
    if (!text || !*text)
        return false;
    static const char *const on[] = {"1", "on", "true", "yes"};
    static const char *const off[] = {"0", "off", "false", "no"};
    for (const char *t : on) {
        if (std::strcmp(text, t) == 0) {
            value = true;
            return true;
        }
    }
    for (const char *t : off) {
        if (std::strcmp(text, t) == 0) {
            value = false;
            return true;
        }
    }
    return false;
}

bool
flag(const char *var, bool dflt)
{
    const char *text = std::getenv(var);
    if (!text || !*text)
        return dflt;
    bool value = dflt;
    if (!parseFlag(text, value)) {
        warn("ignoring unparsable %s='%s' (want on/off)", var, text);
        return dflt;
    }
    return value;
}

bool
parseUnsigned(const char *text, unsigned &value)
{
    if (!text || !*text || text[0] == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        v > std::numeric_limits<unsigned>::max())
        return false;
    value = unsigned(v);
    return true;
}

std::string
str(const char *var, const std::string &dflt)
{
    const char *text = std::getenv(var);
    if (!text || !*text)
        return dflt;
    return text;
}

} // namespace vmmx::env
