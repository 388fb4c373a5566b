/**
 * @file
 * Memory-hierarchy parameters (paper Table IV).
 *
 * The L1 is the conventional scalar data cache; the L2 doubles as the
 * *vector cache* of Quintana et al.: vector (matrix) accesses bypass the
 * L1 and stream from the L2 through a dedicated port.  Stride-one vector
 * requests are serviced by loading two whole cache lines (one per bank)
 * and transfer at B x 64-bit elements per cycle; any other stride
 * transfers one 64-bit element per cycle (paper section III-D).
 */

#ifndef VMMX_MEM_PARAMS_HH
#define VMMX_MEM_PARAMS_HH

#include "common/config.hh"
#include "common/types.hh"

namespace vmmx
{

struct CacheParams
{
    u32 sizeBytes = 0;
    u32 assoc = 1;
    u32 lineBytes = 32;
    Cycle latency = 1;

    u32 numSets() const { return sizeBytes / (lineBytes * assoc); }
};

struct MemParams
{
    CacheParams l1;
    CacheParams l2;

    /** L1 banks, line-interleaved (Table IV: 8).  The L2's two banks
     *  are implicit in the vector port's two-line stride-one read. */
    u32 l1Banks = 8;
    /** Number of L1 data ports: the core's Mem FUs (Table III). */
    unsigned l1Ports = 1;
    /** Width of each L1 port in bytes (Table IV: 8). */
    u32 l1PortBytes = 8;
    /** L1<->L2 fill width in bytes per cycle (Table IV: 16/32/64). */
    u32 l2FillBytes = 16;
    /**
     * Vector (L2) port width in bytes per cycle for stride-one requests
     * (Table III: 1x 64/128/256-bit for 2/4/8-way VMMX).
     */
    u32 vecPortBytes = 8;
    /** Bytes per cycle for non-unit-stride vector transfers (64-bit). */
    u32 vecStridedBytes = 8;
    /** Main memory latency in cycles (Table IV: 500). */
    Cycle memLatency = 500;
    /** Maximum outstanding L1 misses. */
    unsigned mshrs = 8;

    /**
     * Table IV for @p way (2, 4 or 8) with @p l1Ports L1 ports (the
     * core's memory ports), then the overrides of knobs() applied.
     */
    static MemParams forWay(unsigned way, unsigned l1Ports,
                            const Config &overrides = {});

    /** The memory system's override keys (README "Machine knobs"). */
    static std::span<const Knob<MemParams>> knobs();
};

} // namespace vmmx

#endif // VMMX_MEM_PARAMS_HH
