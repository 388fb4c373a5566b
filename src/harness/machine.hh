/**
 * @file
 * A machine configuration = core (Table III) + memory (Table IV),
 * consistently wired (the memory system's scalar L1 ports come from the
 * core's Mem-FU count).
 */

#ifndef VMMX_HARNESS_MACHINE_HH
#define VMMX_HARNESS_MACHINE_HH

#include <string>

#include "mem/params.hh"
#include "sim/params.hh"

namespace vmmx
{

struct MachineConfig
{
    SimdKind kind;
    unsigned way;
    CoreParams core;
    MemParams mem;
};

/** "" when @p key is a row of CoreParams::knobs() or MemParams::knobs(),
 *  else an error naming it and the nearest knob. */
std::string unknownKnob(const std::string &key);

/**
 * Build the paper's configuration for @p kind at @p way.
 * @param overrides knobs for ablation studies; an unknown key or a
 *        value its row rejects is fatal.
 */
MachineConfig makeMachine(SimdKind kind, unsigned way,
                          const Config &overrides = {});

} // namespace vmmx

#endif // VMMX_HARNESS_MACHINE_HH
