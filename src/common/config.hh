/**
 * @file
 * Machine-knob overrides.  A Config holds override strings and parses
 * no numbers.  Each parameter struct (CoreParams, MemParams) declares
 * its knobs once, in one table of Knob rows, and applyKnobs() is the
 * only way an override reaches the struct.
 */

#ifndef VMMX_COMMON_CONFIG_HH
#define VMMX_COMMON_CONFIG_HH

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vmmx
{

class Config
{
  public:
    Config() = default;

    /** Construct from a list of "key=value" strings. */
    explicit Config(const std::vector<std::string> &assignments);

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, s64 value);

    bool has(const std::string &key) const;

    /** The value of @p key; fatal when the key is missing. */
    std::string getString(const std::string &key) const;

    /** All keys in sorted order (for dumping). */
    std::vector<std::string> keys() const;

    /** Key/value equality (override-set and spec round-trip checks). */
    bool operator==(const Config &o) const = default;

  private:
    std::map<std::string, std::string> values_;
};

/** One row of a parameter struct's knob table. */
template <typename P>
struct Knob
{
    const char *key;
    void (*set)(P &, unsigned); ///< stores a checked value in the field
    unsigned min, max;
    const char *meaning;
};

/** @p text as plain decimal (no sign, leading zero or base prefix) in
 *  [@p min, @p max]; anything else is fatal, naming @p key. */
unsigned knobValue(const std::string &key, const std::string &text,
                   unsigned min, unsigned max);

/** Set each field of @p p whose key @p overrides holds. */
template <typename P>
void
applyKnobs(std::span<const Knob<P>> knobs, const Config &overrides, P &p)
{
    for (const Knob<P> &k : knobs)
        if (overrides.has(k.key))
            k.set(p, knobValue(k.key, overrides.getString(k.key), k.min,
                               k.max));
}

} // namespace vmmx

#endif // VMMX_COMMON_CONFIG_HH
