/**
 * @file
 * Tables III and IV: the modelled processor and memory configurations.
 *
 * The rows come from makeMachine(), the constructor behind every grid
 * point's machine, so they are exactly the machines a default
 * (flavour x width) study runs.
 */

#include <iostream>
#include <vector>

#include "common/table.hh"
#include "harness/machine.hh"

using namespace vmmx;

int
main()
{
    // Enumerate the canonical grid once; Table III prints every machine,
    // Table IV prints the memory system per width (flavour-invariant).
    std::vector<MachineConfig> machines;
    for (unsigned way : {2u, 4u, 8u})
        for (auto kind : allSimdKinds)
            machines.push_back(makeMachine(kind, way));

    std::cout << "Table III: modelled processors\n\n";
    TextTable t3({"config", "phys SIMD", "fetch/commit", "int FUs",
                  "FP FUs", "SIMD issue", "SIMD FUs", "lanes",
                  "mem ports", "ROB", "IQ"});
    for (const MachineConfig &m : machines) {
        t3.addRow({m.label(), std::to_string(m.core.physSimd),
                   std::to_string(m.core.way),
                   std::to_string(m.core.intFus),
                   std::to_string(m.core.fpFus),
                   std::to_string(m.core.simdIssue),
                   std::to_string(m.core.simdFus),
                   std::to_string(m.core.lanesPerFu),
                   std::to_string(m.core.memPorts),
                   std::to_string(m.core.robSize),
                   std::to_string(m.core.iqSize)});
    }
    t3.print(std::cout);

    std::cout << "\nTable IV: memory hierarchy\n\n";
    TextTable t4({"config", "L1", "L1 ports", "L2", "fill B/cyc",
                  "vec port B/cyc", "mem latency"});
    for (const MachineConfig &m : machines) {
        if (m.kind != SimdKind::VMMX128)
            continue;
        auto cache = [](const CacheParams &c) {
            return std::to_string(c.sizeBytes / 1024) + "KB/" +
                   std::to_string(c.assoc) + "way/" +
                   std::to_string(c.lineBytes) + "B/" +
                   std::to_string(c.banks) + "banks/lat" +
                   std::to_string(unsigned(c.latency));
        };
        t4.addRow({m.label(), cache(m.mem.l1),
                   std::to_string(m.mem.l1Ports), cache(m.mem.l2),
                   std::to_string(m.mem.l2FillBytes),
                   std::to_string(m.mem.vecPortBytes),
                   std::to_string(unsigned(m.mem.memLatency))});
    }
    t4.print(std::cout);
    return 0;
}
