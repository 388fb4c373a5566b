#include "mem/params.hh"

#include <limits>

#include "common/logging.hh"

namespace vmmx
{

namespace
{

constexpr unsigned noMax = std::numeric_limits<unsigned>::max();
/** Caps of the rows that size a per-configuration allocation (the MSHR
 *  table, the port and bank clocks, the L1 tag array), so a huge value
 *  fails here, naming the key, rather than in the allocator. */
constexpr unsigned maxEntries = 65536;
constexpr unsigned maxL1Bytes = 1u << 20;

// Key, field, min, max, meaning.
#define FIELD(f) [](MemParams &p, unsigned v) { p.f = v; }
const Knob<MemParams> memKnobs[] = {
    {"mem.l1.size", FIELD(l1.sizeBytes), 1, maxL1Bytes, "L1 bytes"},
    {"mem.l1.assoc", FIELD(l1.assoc), 1, noMax, "L1 ways"},
    {"mem.l1.line", FIELD(l1.lineBytes), 1, noMax, "L1 line bytes (2^n)"},
    {"mem.l1.banks", FIELD(l1Banks), 1, maxEntries,
     "L1 banks, line-interleaved"},
    {"mem.l1.latency", FIELD(l1.latency), 0, noMax, "L1 hit cycles"},
    {"mem.l1.ports", FIELD(l1Ports), 1, maxEntries, "scalar L1 ports"},
    {"mem.l1.port_bytes", FIELD(l1PortBytes), 1, noMax, "bytes/cycle/port"},
    {"mem.l2.size", FIELD(l2.sizeBytes), 1, noMax, "L2 bytes"},
    {"mem.l2.assoc", FIELD(l2.assoc), 1, noMax, "L2 ways"},
    {"mem.l2.line", FIELD(l2.lineBytes), 1, noMax, "L2 line bytes (2^n)"},
    {"mem.l2.latency", FIELD(l2.latency), 0, noMax, "L2 hit cycles"},
    {"mem.l2.fill_bytes", FIELD(l2FillBytes), 0, noMax, "L1 fill bytes/cycle"},
    {"mem.vec.port_bytes", FIELD(vecPortBytes), 8, noMax,
     "vector-port bytes/cycle, stride one"},
    {"mem.vec.strided_bytes", FIELD(vecStridedBytes), 1, noMax,
     "vector-port bytes/cycle, other strides"},
    {"mem.latency", FIELD(memLatency), 0, noMax, "main-memory cycles"},
    {"mem.mshrs", FIELD(mshrs), 1, maxEntries, "outstanding L1 misses"},
};
#undef FIELD

/** The shape CacheArray indexes: power-of-two lines and sets. */
void
checkCache(const CacheParams &c, const char *n)
{
    if (c.lineBytes & (c.lineBytes - 1))
        fatal("mem.%s.line must be a power of two (got %u)", n, c.lineBytes);
    u64 sets = u64(c.sizeBytes) / (u64(c.lineBytes) * c.assoc);
    if (sets == 0 || (sets & (sets - 1)))
        fatal("mem.%s.size / (mem.%s.line x mem.%s.assoc) must be a "
              "power-of-two number of sets (got %u / (%u x %u))",
              n, n, n, c.sizeBytes, c.lineBytes, c.assoc);
}

} // namespace

std::span<const Knob<MemParams>>
MemParams::knobs()
{
    return memKnobs;
}

MemParams
MemParams::forWay(unsigned way, unsigned l1Ports, const Config &cfg)
{
    if (way != 2 && way != 4 && way != 8)
        fatal("unsupported superscalar width %u (want 2, 4 or 8)", way);

    unsigned idx = way == 2 ? 0 : way == 4 ? 1 : 2;
    static const u32 fillByWay[3] = {16, 32, 64};
    static const u32 vecByWay[3] = {8, 16, 32};

    MemParams p;
    p.l1 = {.sizeBytes = 32 * 1024, .assoc = 4, .lineBytes = 32, .latency = 3};
    p.l2 = {.sizeBytes = 512 * 1024, .assoc = 2, .lineBytes = 128,
            .latency = 12};
    p.l1Ports = l1Ports;
    p.l2FillBytes = fillByWay[idx];
    p.vecPortBytes = vecByWay[idx];

    applyKnobs(knobs(), cfg, p);

    checkCache(p.l1, "l1");
    checkCache(p.l2, "l2");
    return p;
}

} // namespace vmmx
