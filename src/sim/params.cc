#include "sim/params.hh"

#include <limits>

#include "common/logging.hh"

namespace vmmx
{

namespace
{

constexpr unsigned noMax = std::numeric_limits<unsigned>::max();
/** Cap of every row that sizes a per-configuration allocation (queues,
 *  rings, register files, FU pools, the predictor table), so a huge
 *  value fails here, naming the key, rather than in the allocator. */
constexpr unsigned maxEntries = 65536;

// Key, field, min, max, meaning.
#define FIELD(f) [](CoreParams &p, unsigned v) { p.f = v; }
const Knob<CoreParams> coreKnobs[] = {
    {"core.rob", FIELD(robSize), 1, maxEntries, "reorder-buffer entries"},
    {"core.iq", FIELD(iqSize), 1, maxEntries, "issue-queue entries"},
    {"core.front_depth", FIELD(frontDepth), 0, noMax, "front-end stages"},
    {"core.mispredict", FIELD(mispredictPenalty), 0, noMax, "redirect cycles"},
    {"core.bpred", FIELD(bpredEntries), 1, maxEntries, "gshare entries (2^n)"},
    {"core.lanes", FIELD(lanesPerFu), 1, noMax, "lanes per SIMD unit"},
    {"core.simd_fus", FIELD(simdFus), 1, maxEntries, "SIMD functional units"},
    {"core.simd_issue", FIELD(simdIssue), 1, maxEntries,
     "SIMD issue per cycle"},
    {"core.phys_simd", FIELD(physSimd), 1, maxEntries,
     "physical SIMD registers"},
    {"core.store_window", FIELD(storeWindow), 0, maxEntries,
     "stores searched for disambiguation"},
};
#undef FIELD

} // namespace

std::span<const Knob<CoreParams>>
CoreParams::knobs()
{
    return coreKnobs;
}

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

    applyKnobs(knobs(), cfg, p);

    // Reject what the model cannot run, naming the key, before any
    // simulation state is built.
    if (p.bpredEntries & (p.bpredEntries - 1))
        fatal("core.bpred must be a power of two (got %u)", p.bpredEntries);
    if (p.physSimd <= p.logicalSimd)
        fatal("core.phys_simd must exceed the %u logical SIMD registers "
              "(got %u)", p.logicalSimd, p.physSimd);
    return p;
}

} // namespace vmmx
