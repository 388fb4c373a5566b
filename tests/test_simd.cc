/**
 * @file
 * Host-SIMD dispatch tests: the cpuid probe must report a sane
 * compiled/supported lattice (scalar always present, the active path
 * inside both masks, pins accepted exactly when executable), and --
 * the load-bearing contract -- every compiled+supported kernel path
 * must be bit-identical to the fused serial reference on randomized
 * configuration grids, through both the raw-trace and pre-decoded
 * overloads, at batch widths below, at, and above the widest vector
 * width, and under a decoded-tier budget too small to cache anything.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "sim/simd_dispatch.hh"
#include "trace/trace_repo.hh"

namespace vmmx
{
namespace
{

constexpr simd::Path kAllPaths[] = {simd::Path::Scalar, simd::Path::Sse2,
                                    simd::Path::Avx2, simd::Path::Avx512};

u32
bit(simd::Path p)
{
    return u32(1) << unsigned(p);
}

/** Paths this binary can actually execute here, narrowest first. */
std::vector<simd::Path>
runnablePaths()
{
    std::vector<simd::Path> out;
    u32 usable = simd::compiledMask() & simd::supportedMask();
    for (simd::Path p : kAllPaths)
        if (usable & bit(p))
            out.push_back(p);
    return out;
}

class SimdTest : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    /** Tests pin the process-global active path; put auto-selection
     *  back so ordering between tests cannot matter. */
    void TearDown() override { simd::setActivePathAuto(); }

    TraceRepository repo;
};

TEST_F(SimdTest, ProbeReportsSaneLattice)
{
    // Scalar is unconditionally compiled and unconditionally
    // executable; the masks never stray outside the path ordinals.
    EXPECT_TRUE(simd::compiledMask() & bit(simd::Path::Scalar));
    EXPECT_TRUE(simd::supportedMask() & bit(simd::Path::Scalar));
    EXPECT_EQ(simd::compiledMask() >> simd::numPaths, 0u);
    EXPECT_EQ(simd::supportedMask() >> simd::numPaths, 0u);

    // AVX-512 machines have AVX2; AVX2 machines have SSE2 (the probe
    // checks each feature independently, so this asserts the probe is
    // reading the right bits, not just returning a constant).
    u32 sup = simd::supportedMask();
    if (sup & bit(simd::Path::Avx512)) {
        EXPECT_TRUE(sup & bit(simd::Path::Avx2));
    }
    if (sup & bit(simd::Path::Avx2)) {
        EXPECT_TRUE(sup & bit(simd::Path::Sse2));
    }

    // bestPath and the resolved active path sit inside both masks, and
    // best really is the widest usable ordinal.
    u32 usable = simd::compiledMask() & sup;
    EXPECT_TRUE(usable & bit(simd::bestPath()));
    EXPECT_TRUE(usable & bit(simd::activePath()));
    for (simd::Path p : kAllPaths) {
        if (usable & bit(p)) {
            EXPECT_GE(unsigned(simd::bestPath()), unsigned(p));
        }
    }
}

TEST_F(SimdTest, ParseRoundTripsAndRejectsJunk)
{
    for (simd::Path p : kAllPaths) {
        simd::Path back{};
        bool isAuto = true;
        EXPECT_TRUE(simd::parsePath(simd::pathName(p), back, isAuto));
        EXPECT_FALSE(isAuto);
        EXPECT_EQ(back, p);
    }
    simd::Path ignored{};
    bool isAuto = false;
    EXPECT_TRUE(simd::parsePath("auto", ignored, isAuto));
    EXPECT_TRUE(isAuto);
    for (const char *junk : {"", "avx", "AVX2", "sse", "scalar2", "512"}) {
        simd::Path p{};
        bool a = false;
        EXPECT_FALSE(simd::parsePath(junk, p, a)) << '"' << junk << '"';
    }
}

TEST_F(SimdTest, PinSucceedsExactlyWhenRunnable)
{
    u32 usable = simd::compiledMask() & simd::supportedMask();
    for (simd::Path p : kAllPaths) {
        simd::Path before = simd::activePath();
        std::string err = simd::setActivePath(p);
        if (usable & bit(p)) {
            EXPECT_TRUE(err.empty()) << err;
            EXPECT_EQ(simd::activePath(), p);
        } else {
            // Rejected pins must say why and must not change anything.
            EXPECT_FALSE(err.empty()) << simd::pathName(p);
            EXPECT_NE(err.find(simd::pathName(p)), std::string::npos)
                << err;
            EXPECT_EQ(simd::activePath(), before);
        }
    }
}

TEST_F(SimdTest, WidthOneBatchesAlwaysTakeTheSerialStep)
{
    for (simd::Path p : runnablePaths()) {
        ASSERT_EQ(simd::setActivePath(p), "");
        EXPECT_EQ(simd::pathFor(1), simd::Path::Scalar);
        EXPECT_EQ(simd::pathFor(2), p);
        EXPECT_EQ(simd::pathFor(9), p);
    }
}

/** A machine with randomized ablation knobs, mirroring the sweep
 *  tests: wide coverage of the per-lane state the SoA kernels must
 *  keep exact (ROB/IQ/lane/store-window/bpred/memory shapes). */
MachineConfig
randomMachine(std::mt19937 &rng, SimdKind kind)
{
    auto pick = [&](std::initializer_list<s64> choices) {
        std::vector<s64> v(choices);
        return v[rng() % v.size()];
    };
    unsigned way = unsigned(pick({2, 4, 8}));
    Config knobs;
    if (rng() % 2)
        knobs.set("core.rob", pick({16, 32, 64, 128}));
    if (rng() % 2)
        knobs.set("core.iq", pick({1, 2, 8, 16, 32}));
    if (rng() % 2)
        knobs.set("core.lanes", pick({1, 2, 4}));
    if (rng() % 2)
        knobs.set("core.store_window", pick({0, 16, 64}));
    if (rng() % 2)
        knobs.set("core.bpred", pick({256, 4096}));
    if (rng() % 2)
        knobs.set("mem.l2.latency", pick({6, 12, 20}));
    if (rng() % 2)
        knobs.set("mem.mshrs", pick({2, 8}));
    if (rng() % 2)
        knobs.set("mem.l1.size", pick({16 * 1024, 32 * 1024}));
    return makeMachine(kind, way, knobs);
}

// The dispatch contract: every kernel path this host can run is
// bit-identical to N independent runTrace() calls (the fused serial
// oracle) on randomized grids -- raw and pre-decoded overloads, batch
// widths 1 (serial fast path), 2 (partial vector), 4 and 8 (exact
// 4-lane and 8-lane vectors), 9 (wider than any host vector, exercising
// chunking plus the padded tail), and 12 (one full AVX-512 vector plus
// a 4-lane tail).  The rng reseeds per path so every path replays the
// exact same grids.
TEST_F(SimdTest, EveryRunnablePathBitIdenticalToSerial)
{
    for (simd::Path path : runnablePaths()) {
        ASSERT_EQ(simd::setActivePath(path), "");
        for (SimdKind kind : {SimdKind::MMX64, SimdKind::VMMX128}) {
            const TraceKey key{false, "idct", kind,
                               TraceRepository::kernelImageBytes,
                               TraceRepository::defaultSeed};
            auto trace = repo.raw(key);
            auto stream = repo.decoded(key);
            std::mt19937 rng(0x51bd);
            for (size_t batchSize : {1, 2, 4, 8, 9, 12}) {
                std::vector<MachineConfig> machines;
                machines.reserve(batchSize);
                for (size_t i = 0; i < batchSize; ++i)
                    machines.push_back(randomMachine(rng, kind));

                auto batched = runTraceBatch(machines, *trace);
                auto decoded = runTraceBatch(machines, stream.stream());
                ASSERT_EQ(batched.size(), batchSize);
                for (size_t i = 0; i < batchSize; ++i) {
                    RunResult alone = runTrace(machines[i], *trace);
                    EXPECT_TRUE(batched[i] == alone)
                        << simd::pathName(path) << ' ' << name(kind)
                        << " batch of " << batchSize << ", config " << i;
                    EXPECT_TRUE(decoded[i] == alone)
                        << simd::pathName(path) << " decoded "
                        << name(kind) << " batch of " << batchSize
                        << ", config " << i;
                }
            }
        }
    }
}

// A decoded-tier budget too small to retain anything forces the raw
// overload through its bounded blockwise-decode scratch path on every
// group; the SoA kernels must then see the trace in windows rather
// than one span, with identical results.
TEST_F(SimdTest, TinyDecodedBudgetStaysBitIdentical)
{
    TraceRepository tiny(nullptr, 0, 1);
    const TraceKey key{false, "h2v2", SimdKind::VMMX64,
                       TraceRepository::kernelImageBytes,
                       TraceRepository::defaultSeed};
    auto trace = tiny.raw(key);
    std::mt19937 rng(0xd0de);
    std::vector<MachineConfig> machines;
    for (size_t i = 0; i < 9; ++i)
        machines.push_back(randomMachine(rng, SimdKind::VMMX64));

    std::vector<RunResult> expect;
    for (const MachineConfig &m : machines)
        expect.push_back(runTrace(m, *trace));

    for (simd::Path path : runnablePaths()) {
        ASSERT_EQ(simd::setActivePath(path), "");
        auto got = runTraceBatch(machines, *trace);
        auto stream = tiny.decoded(key);
        auto decoded = runTraceBatch(machines, stream.stream());
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_TRUE(got[i] == expect[i])
                << simd::pathName(path) << " config " << i;
            EXPECT_TRUE(decoded[i] == expect[i])
                << simd::pathName(path) << " decoded config " << i;
        }
    }
}

} // namespace
} // namespace vmmx
