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

bool
parseFaultSpec(const char *text, std::vector<FaultAction> &plan,
               std::string &err)
{
    plan.clear();
    if (!text || !*text)
        return true;

    std::string spec(text);
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        std::string tok = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (tok.empty())
            continue;

        std::string body = tok, scope, value;
        size_t at = body.find('@');
        if (at != std::string::npos) {
            scope = body.substr(at + 1);
            body = body.substr(0, at);
            if (scope.empty()) {
                err = "fault directive '" + tok + "' has an empty scope";
                return false;
            }
        }
        std::string name = body;
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
        }

        FaultAction a;
        bool wantsValue = true;
        if (name == "kill-after-units")
            a.kind = FaultAction::Kind::KillAfterUnits;
        else if (name == "kill-mid-unit")
            a.kind = FaultAction::Kind::KillMidUnit;
        else if (name == "kill-on-point")
            a.kind = FaultAction::Kind::KillOnPoint;
        else if (name == "corrupt-frame")
            a.kind = FaultAction::Kind::CorruptFrame;
        else if (name == "exit-code")
            a.kind = FaultAction::Kind::ExitCode;
        else if (name == "stall") {
            a.kind = FaultAction::Kind::Stall;
            wantsValue = false;
        } else {
            err = "unknown fault directive '" + name + "'";
            return false;
        }

        if (!value.empty()) {
            unsigned v = 0;
            if (!parseUnsigned(value.c_str(), v)) {
                err = "fault directive '" + name + "' has a bad value '" +
                      value + "'";
                return false;
            }
            a.value = v;
        } else if (wantsValue) {
            err = "fault directive '" + name + "' needs a value";
            return false;
        }

        if (!scope.empty()) {
            unsigned w = 0;
            if (scope.rfind("worker", 0) != 0 ||
                !parseUnsigned(scope.c_str() + 6, w)) {
                err = "fault scope '" + scope + "' is not workerN";
                return false;
            }
            a.worker = s64(w);
        }
        plan.push_back(a);
    }
    return true;
}

} // namespace vmmx::env
