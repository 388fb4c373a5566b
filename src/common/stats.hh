/**
 * @file
 * Lightweight statistics package: named event counters.
 *
 * Counters belong to a StatGroup, which resets them together.  The
 * design follows the gem5 stats package in spirit: stats are registered
 * once with a name and description and accumulate over a simulation.
 */

#ifndef VMMX_COMMON_STATS_HH
#define VMMX_COMMON_STATS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace vmmx
{

class StatGroup;

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;
    Counter(StatGroup *parent, const std::string &name,
            const std::string &desc);

    Counter &operator++() { value_ += 1; return *this; }
    Counter &operator+=(u64 n) { value_ += n; return *this; }
    u64 value() const { return value_; }
    void reset() { value_ = 0; }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    u64 value_ = 0;
};

/**
 * A named collection of counters.  Counters register with their group
 * at construction, so resetAll() zeroes every one of them.
 */
class StatGroup
{
  public:
    explicit StatGroup(const std::string &name) : name_(name) {}

    void addCounter(Counter *c) { counters_.push_back(c); }
    void resetAll();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<Counter *> counters_;
};

} // namespace vmmx

#endif // VMMX_COMMON_STATS_HH
