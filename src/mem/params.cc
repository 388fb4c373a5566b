#include "mem/params.hh"

#include "common/logging.hh"

namespace vmmx
{

namespace
{

void
atLeast(u64 v, u64 min, const char *key)
{
    if (v < min)
        fatal("%s must be at least %llu (got %llu)", key,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(v));
}

/** The shape CacheArray indexes: power-of-two lines and sets. */
void
checkCache(const CacheParams &c)
{
    const char *n = c.name.c_str();
    if (c.lineBytes == 0 || (c.lineBytes & (c.lineBytes - 1)))
        fatal("mem.%s.line must be a power of two (got %u)", n, c.lineBytes);
    if (c.assoc == 0)
        fatal("mem.%s.assoc must be at least 1", n);
    if (c.banks == 0)
        fatal("mem.%s.banks must be at least 1", n);
    u64 sets = u64(c.sizeBytes) / (u64(c.lineBytes) * c.assoc);
    if (sets == 0 || (sets & (sets - 1)))
        fatal("mem.%s.size / (mem.%s.line x mem.%s.assoc) must be a "
              "power-of-two number of sets (got %u / (%u x %u))",
              n, n, n, c.sizeBytes, c.lineBytes, c.assoc);
}

} // namespace

MemParams
MemParams::forWay(unsigned way, const Config &cfg)
{
    if (way != 2 && way != 4 && way != 8)
        fatal("unsupported superscalar width %u (want 2, 4 or 8)", way);

    unsigned idx = way == 2 ? 0 : way == 4 ? 1 : 2;

    MemParams p;
    p.l1.name = "l1";
    p.l1.sizeBytes = u32(cfg.getUint("mem.l1.size", 32 * 1024));
    p.l1.assoc = u32(cfg.getUint("mem.l1.assoc", 4));
    p.l1.lineBytes = u32(cfg.getUint("mem.l1.line", 32));
    p.l1.banks = u32(cfg.getUint("mem.l1.banks", 8));
    p.l1.latency = cfg.getUint("mem.l1.latency", 3);

    p.l2.name = "l2";
    p.l2.sizeBytes = u32(cfg.getUint("mem.l2.size", 512 * 1024));
    p.l2.assoc = u32(cfg.getUint("mem.l2.assoc", 2));
    p.l2.lineBytes = u32(cfg.getUint("mem.l2.line", 128));
    p.l2.banks = u32(cfg.getUint("mem.l2.banks", 2));
    p.l2.latency = cfg.getUint("mem.l2.latency", 12);

    static const unsigned l1PortsByWay[3] = {1, 2, 4};
    static const u32 fillByWay[3] = {16, 32, 64};
    static const u32 vecByWay[3] = {8, 16, 32};

    p.l1Ports = unsigned(cfg.getUint("mem.l1.ports", l1PortsByWay[idx]));
    p.l1PortBytes = u32(cfg.getUint("mem.l1.port_bytes", 8));
    p.l2FillBytes = u32(cfg.getUint("mem.l2.fill_bytes", fillByWay[idx]));
    p.vecPortBytes = u32(cfg.getUint("mem.vec.port_bytes", vecByWay[idx]));
    p.vecStridedBytes = u32(cfg.getUint("mem.vec.strided_bytes", 8));
    p.memLatency = cfg.getUint("mem.latency", 500);
    p.memPipeCycles = cfg.getUint("mem.pipe_cycles", 30);
    p.mshrs = unsigned(cfg.getUint("mem.mshrs", 8));

    checkCache(p.l1);
    checkCache(p.l2);
    atLeast(p.l1Ports, 1, "mem.l1.ports");
    atLeast(p.l1PortBytes, 1, "mem.l1.port_bytes");
    atLeast(p.vecPortBytes, 8, "mem.vec.port_bytes");
    atLeast(p.vecStridedBytes, 1, "mem.vec.strided_bytes");
    atLeast(p.mshrs, 1, "mem.mshrs");
    return p;
}

} // namespace vmmx
