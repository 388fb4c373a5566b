#include "sim/params.hh"

#include <utility>

#include "common/logging.hh"

namespace vmmx
{

CoreParams
CoreParams::forConfig(SimdKind kind, unsigned way, const Config &cfg)
{
    if (way != 2 && way != 4 && way != 8)
        fatal("unsupported superscalar width %u (want 2, 4 or 8)", way);

    unsigned idx = way == 2 ? 0 : way == 4 ? 1 : 2;
    bool matrix = isMatrix(kind);

    CoreParams p;
    p.kind = kind;
    p.way = way;
    p.intFus = way;
    p.fpFus = way / 2 ? way / 2 : 1;

    // Table III.
    static const unsigned mmxPhys[3] = {40, 64, 96};
    static const unsigned vmmxPhys[3] = {20, 36, 64};
    static const unsigned vmmxIssue[3] = {1, 2, 3};
    static const unsigned mmxPorts[3] = {1, 2, 4};
    static const unsigned vmmxPorts[3] = {1, 1, 2};

    if (matrix) {
        p.simdIssue = vmmxIssue[idx];
        p.simdFus = vmmxIssue[idx];
        p.lanesPerFu = 4;
        p.physSimd = vmmxPhys[idx];
        p.logicalSimd = 16;
        p.memPorts = vmmxPorts[idx];
        p.physAcc = 8;
        p.logicalAcc = 4;
    } else {
        p.simdIssue = way;
        p.simdFus = way;
        p.lanesPerFu = 1;
        p.physSimd = mmxPhys[idx];
        p.logicalSimd = 32;
        p.memPorts = mmxPorts[idx];
        // The 1-D flavours have no architected accumulators; keep a
        // minimal pool so the rename model stays uniform.
        p.physAcc = 2;
        p.logicalAcc = 1;
    }

    // Scalar core scaling (R10000-like; not specified in Table III).
    p.physInt = mmxPhys[idx];
    p.physFp = 40 + 16 * idx;
    p.robSize = 16u * way;
    p.iqSize = 8u * way;

    // Overrides for ablations and tests.
    p.robSize = unsigned(cfg.getUint("core.rob", p.robSize));
    p.iqSize = unsigned(cfg.getUint("core.iq", p.iqSize));
    p.frontDepth = unsigned(cfg.getUint("core.front_depth", p.frontDepth));
    p.mispredictPenalty =
        unsigned(cfg.getUint("core.mispredict", p.mispredictPenalty));
    p.bpredEntries = unsigned(cfg.getUint("core.bpred", p.bpredEntries));
    p.lanesPerFu = unsigned(cfg.getUint("core.lanes", p.lanesPerFu));
    p.simdFus = unsigned(cfg.getUint("core.simd_fus", p.simdFus));
    p.simdIssue = unsigned(cfg.getUint("core.simd_issue", p.simdIssue));
    p.physSimd = unsigned(cfg.getUint("core.phys_simd", p.physSimd));
    p.storeWindow = unsigned(cfg.getUint("core.store_window",
                                         p.storeWindow));

    // Reject what the model cannot run, naming the key, before any
    // simulation state is built.
    const std::pair<unsigned, const char *> positive[] = {
        {p.robSize, "core.rob"},      {p.iqSize, "core.iq"},
        {p.lanesPerFu, "core.lanes"}, {p.simdFus, "core.simd_fus"},
        {p.simdIssue, "core.simd_issue"}};
    for (const auto &[v, key] : positive)
        if (v == 0)
            fatal("%s must be at least 1", key);
    if (p.iqSize > 65536)
        fatal("core.iq must be at most 65536 (got %u)", p.iqSize);
    if (p.bpredEntries == 0 || (p.bpredEntries & (p.bpredEntries - 1)))
        fatal("core.bpred must be a power of two (got %u)", p.bpredEntries);
    if (p.physSimd <= p.logicalSimd)
        fatal("core.phys_simd must exceed the %u logical SIMD registers "
              "(got %u)", p.logicalSimd, p.physSimd);
    return p;
}

} // namespace vmmx
