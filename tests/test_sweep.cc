/**
 * @file
 * Sweep-engine and trace-repository tests: a multi-threaded sweep must
 * be bit-identical to the serial loop, results must come back in
 * submission order, and repeated trace lookups must hit the repository
 * instead of regenerating.  The batched engine adds its own contract:
 * running N machine configurations through one trace pass
 * (runTraceBatch, or a batched schedule) must be bit-identical to N
 * independent runTrace() calls, for any batch size and any knob
 * overrides -- replaying the repository's pre-decoded tier-2 stream
 * must be bit-identical to decoding on the fly, and sweeps stream their
 * traces instead of keeping them.
 */

#include <gtest/gtest.h>

#include <random>

#include "common/logging.hh"
#include "harness/study.hh"
#include "kernels/kernel.hh"
#include "trace/trace_repo.hh"

namespace vmmx
{
namespace
{

SweepPoint
kernelPoint(const std::string &name, SimdKind kind, unsigned way,
            const Config &overrides = {})
{
    return {SweepPoint::Workload::Kernel, name, kind, way, overrides};
}

/** The (kernel x flavour x width) cross product, kernel-major. */
std::vector<SweepPoint>
kernelGrid(std::vector<std::string> names, std::vector<SimdKind> kinds,
           std::vector<unsigned> ways)
{
    StudySpec spec;
    spec.kernels = std::move(names);
    spec.kinds = std::move(kinds);
    spec.ways = std::move(ways);
    return Study(spec).points();
}

/** The materialize-then-replay oracle: runSweepPoint over the grid. */
std::vector<SweepResult>
runReference(const std::vector<SweepPoint> &points,
             const ExecutionPolicy &policy)
{
    std::vector<SweepResult> results;
    for (const SweepPoint &p : points)
        results.push_back(runSweepPoint(p, policy));
    return results;
}

class EngineTest : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    /** A private repository per test so counters start at zero. */
    TraceRepository repo;
};

TEST_F(EngineTest, RepositoryGeneratesOncePerKey)
{
    EXPECT_EQ(repo.generations(), 0u);
    auto t1 = repo.kernel("idct", SimdKind::VMMX128);
    EXPECT_EQ(repo.generations(), 1u);
    EXPECT_EQ(repo.rawStats().hits, 0u);

    // Second and third lookups of the same key: raw-tier hits, no
    // regeneration, same shared immutable trace object.
    auto t2 = repo.kernel("idct", SimdKind::VMMX128);
    auto t3 = repo.kernel("idct", SimdKind::VMMX128);
    EXPECT_EQ(repo.generations(), 1u);
    EXPECT_EQ(repo.rawStats().hits, 2u);
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_EQ(t1.get(), t3.get());

    // A different key generates again.
    auto t4 = repo.kernel("idct", SimdKind::MMX64);
    EXPECT_EQ(repo.generations(), 2u);
    EXPECT_EQ(repo.size(), 2u);
}

TEST_F(EngineTest, RepositoryDistinguishesKindAndWorkload)
{
    auto a = repo.kernel("motion1", SimdKind::MMX64);
    auto b = repo.kernel("motion1", SimdKind::MMX128);
    auto c = repo.kernel("motion2", SimdKind::MMX64);
    EXPECT_EQ(repo.generations(), 3u);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    // Traces are genuinely different programs.
    EXPECT_NE(a->size(), 0u);
    EXPECT_NE(b->size(), 0u);
}

TEST_F(EngineTest, CachedTraceMatchesDirectGeneration)
{
    auto cached = repo.kernel("ycc", SimdKind::VMMX64);

    auto k = makeKernel("ycc");
    MemImage mem(TraceRepository::kernelImageBytes);
    Rng rng(TraceRepository::defaultSeed);
    k->prepare(mem, rng);
    Program p(mem, SimdKind::VMMX64);
    k->emit(p);
    auto direct = p.takeTrace();

    ASSERT_EQ(cached->size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ((*cached)[i].op, direct[i].op) << "at " << i;
        EXPECT_EQ((*cached)[i].addr, direct[i].addr) << "at " << i;
        EXPECT_EQ((*cached)[i].staticId, direct[i].staticId) << "at " << i;
    }
}

TEST_F(EngineTest, DecodedStreamMatchesOnTheFlyDecode)
{
    // The tier-2 contract: replaying the repository's decoded stream is
    // bit-identical to handing runTrace the raw records.
    auto trace = repo.kernel("h2v2", SimdKind::VMMX128);
    auto stream = repo.decoded(
        {false, "h2v2", SimdKind::VMMX128, TraceRepository::kernelImageBytes,
         TraceRepository::defaultSeed});
    ASSERT_EQ(stream.records(), trace->size());

    for (unsigned way : {2u, 8u}) {
        MachineConfig machine = makeMachine(SimdKind::VMMX128, way);
        RunResult raw = runTrace(machine, *trace);
        RunResult decoded = runTrace(machine, stream.stream());
        EXPECT_TRUE(raw == decoded) << way << "-way";
    }
}

TEST_F(EngineTest, ParallelSweepBitIdenticalToSerial)
{
    // >= 8 (kernel x flavour x width) points with distinct shapes.
    ExecutionPolicy policy;
    policy.repo = &repo;
    policy.threads = 4;

    auto points = kernelGrid({"idct", "h2v2"},
                             {SimdKind::MMX64, SimdKind::VMMX128}, {2, 4});
    points.push_back(kernelPoint("motion1", SimdKind::MMX128, 8));
    points.push_back(
        {SweepPoint::Workload::App, "gsmenc", SimdKind::VMMX64, 4, {}});
    ASSERT_GE(points.size(), 8u);

    auto a = runReference(points, policy);
    auto b = runPoints(points, policy);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].sameRun(b[i])) << "point " << i << " ("
                                        << a[i].point.label() << ")";
        EXPECT_EQ(a[i].point.label(), b[i].point.label());
    }

    // Repeated threaded runs stay deterministic.
    auto c = runPoints(points, policy);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].sameRun(c[i])) << "point " << i;
}

TEST_F(EngineTest, SweepStreamsTracesAndReplaysResidentOnesInPlace)
{
    // 3 widths x 2 flavours of one kernel: 6 points, 2 traces.
    auto points =
        kernelGrid({"rgb"}, {SimdKind::MMX64, SimdKind::VMMX128}, {2, 4, 8});

    // Each trace is replayed by exactly one group, so it is streamed
    // from the generator into the group's pass and never kept.
    TraceRepository streamed;
    ExecutionPolicy policy;
    policy.repo = &streamed;
    policy.threads = 4;
    auto results = runPoints(points, policy);
    ASSERT_EQ(results.size(), 6u);
    EXPECT_EQ(streamed.generations(), 2u);
    EXPECT_EQ(streamed.rawStats().bytes, 0u);
    EXPECT_EQ(streamed.size(), 0u);
    EXPECT_EQ(streamed.decodes(), 0u);

    // Same trace => same dynamic length at every width; the streamed
    // groups agree with the materialize-then-replay oracle bit for bit.
    EXPECT_EQ(results[0].traceLength, results[1].traceLength);
    EXPECT_EQ(results[0].traceLength, results[2].traceLength);
    TraceRepository oracleRepo;
    ExecutionPolicy oracle;
    oracle.repo = &oracleRepo;
    auto expect = runReference(points, oracle);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(results[i].sameRun(expect[i])) << "point " << i;

    // A sweep over traces a raw() lookup left resident replays them in
    // place (raw hits) instead of generating again.
    TraceRepository warm;
    warm.raw(traceKeyFor(points[0]));
    warm.raw(traceKeyFor(points[3]));
    EXPECT_EQ(warm.generations(), 2u);
    policy.repo = &warm;
    auto againResults = runPoints(points, policy);
    EXPECT_EQ(warm.generations(), 2u);
    EXPECT_EQ(warm.rawStats().hits, 2u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(results[i].sameRun(againResults[i])) << "point " << i;
}

TEST_F(EngineTest, LabelIncludesAblationOverrides)
{
    // Two points that differ only in a knob must not print identically.
    Config robSmall;
    robSmall.set("core.rob", s64(32));
    Config robLarge;
    robLarge.set("core.rob", s64(128));
    robLarge.set("mem.l2.latency", s64(9));

    const std::vector<SweepPoint> pts = {
        kernelPoint("idct", SimdKind::VMMX128, 4, robSmall),
        kernelPoint("idct", SimdKind::VMMX128, 4, robLarge),
        kernelPoint("idct", SimdKind::VMMX128, 4)};
    EXPECT_NE(pts[0].label(), pts[1].label());
    EXPECT_NE(pts[0].label(), pts[2].label());
    EXPECT_EQ(pts[2].label(), "idct/vmmx128/4-way");
    EXPECT_EQ(pts[0].label(), "idct/vmmx128/4-way+core.rob=32");
    // Multiple overrides all appear (sorted by key).
    EXPECT_EQ(pts[1].label(),
              "idct/vmmx128/4-way+core.rob=128+mem.l2.latency=9");
}

TEST_F(EngineTest, ResultsMatchDirectRunTrace)
{
    ExecutionPolicy policy;
    policy.repo = &repo;
    policy.threads = 2;
    auto results =
        runPoints({kernelPoint("ltpfilt", SimdKind::VMMX128, 4)}, policy);
    ASSERT_EQ(results.size(), 1u);

    auto trace = repo.kernel("ltpfilt", SimdKind::VMMX128);
    RunResult direct = runTrace(makeMachine(SimdKind::VMMX128, 4), *trace);
    EXPECT_TRUE(results[0].result == direct);
}

/** A machine with randomized ablation knobs -- wide coverage of the
 *  state a SimContext must keep private for batching to be exact. */
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
        knobs.set("core.iq", pick({8, 16, 32}));
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

// The batched-execution contract: one trace pass through N randomized
// configurations is bit-identical to N independent runTrace() calls --
// for a batch of one, a pair, and a batch wider than the sweep engine's
// thread pool -- and the pre-decoded (tier-2) pass agrees with both.
// idct runs on both flavours; gsmenc/MMX64 joins it because no Table II
// kernel's cycles move with core.store_window and gsmenc's do, so a
// store-window fault in one step path shows here.
TEST_F(EngineTest, RunTraceBatchMatchesPerConfigRunTrace)
{
    const TraceKey idct{false, "idct", SimdKind::MMX64,
                        TraceRepository::kernelImageBytes,
                        TraceRepository::defaultSeed};
    TraceKey idct128 = idct;
    idct128.kind = SimdKind::VMMX128;
    const TraceKey gsmenc{true, "gsmenc", SimdKind::MMX64,
                          TraceRepository::appImageBytes,
                          TraceRepository::defaultSeed};
    for (const TraceKey &key : {idct, idct128, gsmenc}) {
        auto trace = repo.raw(key);
        auto stream = repo.decoded(key);
        std::mt19937 rng(0xbeef);
        for (size_t batchSize : {size_t(1), size_t(2), size_t(9)}) {
            std::vector<MachineConfig> machines;
            machines.reserve(batchSize);
            for (size_t i = 0; i < batchSize; ++i)
                machines.push_back(randomMachine(rng, key.kind));

            auto batched = runTraceBatch(machines, *trace);
            auto decoded = runTraceBatch(machines, stream.stream());
            ASSERT_EQ(batched.size(), batchSize);
            for (size_t i = 0; i < batchSize; ++i) {
                RunResult alone = runTrace(machines[i], *trace);
                EXPECT_TRUE(batched[i] == alone)
                    << key.describe() << " batch of " << batchSize
                    << ", config " << i;
                EXPECT_TRUE(decoded[i] == alone)
                    << key.describe() << " decoded batch of " << batchSize
                    << ", config " << i;
            }
        }
    }

    // The gsmenc case guards the store window only while its cycles
    // depend on it (127,119 at 0 entries, 127,139 at 64).
    auto trace = repo.raw(gsmenc);
    auto cyclesAt = [&](s64 storeWindow) {
        Config knobs;
        knobs.set("core.store_window", storeWindow);
        return runTrace(makeMachine(SimdKind::MMX64, 2, knobs), *trace)
            .cycles();
    };
    EXPECT_NE(cyclesAt(0), cyclesAt(64));
}

// A batched sweep over a grid with trace groups wider than the thread
// pool must stay bit-identical to the per-point serial reference.
TEST_F(EngineTest, BatchedSweepBitIdenticalToSerial)
{
    ExecutionPolicy policy;
    policy.repo = &repo;
    policy.threads = 4;

    // One trace replayed on 6 knob variants: a group wider than the
    // 4-thread pool; plus ordinary (flavour x width) groups.
    std::vector<SweepPoint> points;
    for (s64 rob : {16, 24, 32, 48, 64, 128}) {
        Config knobs;
        knobs.set("core.rob", rob);
        points.push_back(kernelPoint("h2v2", SimdKind::VMMX64, 4, knobs));
    }
    for (const SweepPoint &p : kernelGrid(
             {"motion1"}, {SimdKind::MMX64, SimdKind::MMX128}, {2, 4, 8}))
        points.push_back(p);

    auto expect = runReference(points, policy);
    auto got = runPoints(points, policy);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(got[i].sameRun(expect[i]))
            << "point " << i << " (" << expect[i].point.label() << ")";
        EXPECT_EQ(got[i].point.label(), expect[i].point.label());
    }

    // The grouping itself: 6 knob variants of one trace form one group.
    auto groups = groupPointsByTrace(points);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].size(), 6u);
    EXPECT_EQ(groups[1].size(), 3u);
    EXPECT_EQ(groups[2].size(), 3u);
}

} // namespace
} // namespace vmmx
