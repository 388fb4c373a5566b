#include "harness/machine.hh"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace vmmx
{

namespace
{

/** Fewest single-character inserts, deletes and substitutions from
 *  @p a to @p b. */
size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<size_t> row(b.size() + 1);
    std::iota(row.begin(), row.end(), size_t(0));
    for (char c : a) {
        size_t diag = row[0]++;
        for (size_t j = 1; j <= b.size(); ++j)
            diag = std::exchange(row[j], std::min({row[j] + 1, row[j - 1] + 1,
                                                   diag + (c != b[j - 1])}));
    }
    return row.back();
}

} // namespace

std::string
unknownName(const std::string &what, const std::string &name,
            const std::vector<std::string> &names)
{
    if (std::ranges::find(names, name) != names.end())
        return "";
    const std::string &nearest = *std::ranges::min_element(
        names, {}, [&](const std::string &n) { return editDistance(name, n); });
    return "unknown " + what + " '" + name + "' (nearest: " + nearest + ")";
}

std::string
unknownKnob(const std::string &key)
{
    std::vector<std::string> keys;
    for (const auto &k : CoreParams::knobs())
        keys.push_back(k.key);
    for (const auto &k : MemParams::knobs())
        keys.push_back(k.key);
    return unknownName("machine knob", key, keys);
}

MachineConfig
makeMachine(SimdKind kind, unsigned way, const Config &overrides)
{
    for (const std::string &key : overrides.keys())
        if (std::string what = unknownKnob(key); !what.empty())
            fatal("%s", what.c_str());
    MachineConfig m;
    m.kind = kind;
    m.way = way;
    m.core = CoreParams::forConfig(kind, way, overrides);
    m.mem = MemParams::forWay(way, m.core.memPorts, overrides);
    return m;
}

} // namespace vmmx
