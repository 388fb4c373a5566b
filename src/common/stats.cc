#include "common/stats.hh"

namespace vmmx
{

Counter::Counter(StatGroup *parent, const std::string &name,
                 const std::string &desc)
    : name_(name), desc_(desc)
{
    if (parent)
        parent->addCounter(this);
}

void
StatGroup::resetAll()
{
    for (Counter *c : counters_)
        c->reset();
}

} // namespace vmmx
