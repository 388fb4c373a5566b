/**
 * @file
 * Host-SIMD dispatch tests: the cpuid probe must report a sane
 * compiled/supported lattice (scalar always present, the retired sse2
 * never, the active path inside both masks, pins accepted exactly when
 * executable), and -- the load-bearing contract -- every
 * compiled+supported path (context-major scalar and the SoA kernels)
 * must be bit-identical to the fused serial reference on randomized
 * configuration grids, through both the raw-trace and pre-decoded
 * overloads, at batch widths below, at, and above the widest vector
 * width.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <vector>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "sim/params.hh"
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

    // AVX-512 machines have AVX2 (the probe checks each feature
    // independently, so this asserts the probe is reading the right
    // bits, not just returning a constant).  The retired sse2 name is
    // neither compiled nor probed.
    u32 sup = simd::supportedMask();
    if (sup & bit(simd::Path::Avx512)) {
        EXPECT_TRUE(sup & bit(simd::Path::Avx2));
    }
    EXPECT_FALSE(simd::compiledMask() & bit(simd::Path::Sse2));
    EXPECT_FALSE(sup & bit(simd::Path::Sse2));

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

/** @p n machines with randomized ablation knobs, mirroring the sweep
 *  tests: wide coverage of the per-lane state the SoA kernels must
 *  keep exact (ROB/IQ/free-list/lane/store-window/bpred/memory
 *  shapes).  Issue-queue and ROB sizes step through their lists from a
 *  random start, so neighbouring machines differ in both and every
 *  batch of two or more steps rings of mixed depth: queues shallower
 *  than the kernels' vector insert window and queues deeper than their
 *  own ROB among them.  Some machines keep just one or two SIMD
 *  registers beyond the flavour's logical ones. */
std::vector<MachineConfig>
randomMachines(std::mt19937 &rng, SimdKind kind, size_t n)
{
    auto pick = [&](std::initializer_list<s64> choices) {
        std::vector<s64> v(choices);
        return v[rng() % v.size()];
    };
    static constexpr s64 iqs[] = {1, 2, 8, 16, 32, 64, 128};
    static constexpr s64 robs[] = {1, 8, 16, 32, 64, 128};
    const size_t iq0 = rng() % std::size(iqs);
    const size_t rob0 = rng() % std::size(robs);
    std::vector<MachineConfig> machines;
    for (size_t i = 0; i < n; ++i) {
        unsigned way = unsigned(pick({2, 4, 8}));
        Config knobs;
        knobs.set("core.iq", iqs[(iq0 + i) % std::size(iqs)]);
        knobs.set("core.rob", robs[(rob0 + i) % std::size(robs)]);
        if (rng() % 3 == 0)
            knobs.set("core.phys_simd",
                      s64(CoreParams::forConfig(kind, way).logicalSimd) +
                          pick({1, 2}));
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
        machines.push_back(makeMachine(kind, way, knobs));
    }
    return machines;
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
                std::vector<MachineConfig> machines =
                    randomMachines(rng, kind, batchSize);

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

} // namespace
} // namespace vmmx
