#include "common/config.hh"

#include "common/env.hh"
#include "common/logging.hh"

namespace vmmx
{

Config::Config(const std::vector<std::string> &assignments)
{
    for (const auto &a : assignments) {
        auto eq = a.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("malformed config assignment '%s' (want key=value)",
                  a.c_str());
        set(a.substr(0, eq), a.substr(eq + 1));
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, s64 value)
{
    values_[key] = std::to_string(value);
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
Config::getString(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        fatal("missing required config key '%s'", key.c_str());
    return it->second;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

unsigned
knobValue(const std::string &key, const std::string &text, unsigned min,
          unsigned max)
{
    unsigned v = 0;
    if (!env::parseUnsigned(text.c_str(), v) || std::to_string(v) != text)
        fatal("%s wants a decimal number from %u to %u (got '%s')",
              key.c_str(), min, max, text.c_str());
    if (v < min)
        fatal("%s must be at least %u (got %u)", key.c_str(), min, v);
    if (v > max)
        fatal("%s must be at most %u (got %u)", key.c_str(), max, v);
    return v;
}

} // namespace vmmx
