// vmmx_lint-fixture: rule=knob-table path=src/harness/ablation.cc
// A second lookup of a knob key outside its table: a typo here, or a
// key the table drops, would silently keep the default.
#include "harness/machine.hh"

namespace vmmx
{

unsigned
l1PortsFor(const MachineConfig &m, const Config &overrides)
{
    if (!overrides.has("mem.l1.ports"))
        return m.core.memPorts;
    return m.mem.l1Ports;
}

} // namespace vmmx
