/**
 * @file
 * TraceRepository tests: the raw() memo builds each key once however
 * many threads ask for it, streams and decodes never add to it, a
 * store-backed repository's traces come back from disk in a fresh one,
 * and results are bit-identical to an unshared repository's.
 *
 * The streaming half: a trace handed over block by block -- by the
 * generator, by the store reader, through the producer/consumer ring --
 * is the same record sequence as the materialized trace, so the
 * streamed replay is bit-identical to runTrace() however the blocks are
 * cut; a store file written through while streaming is byte-identical
 * to TraceStore::save(); and a store file whose records turn out
 * malformed part way never leaves a partially stepped trace behind.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/executor.hh"
#include "kernels/kernel.hh"
#include "trace/program.hh"
#include "trace/trace_repo.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;

namespace vmmx
{
namespace
{

class TraceRepoTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        dir_ = fs::temp_directory_path() /
               ("vmmx-repo-test-" + std::to_string(::getpid()) + "-" +
                testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string storeDir() const { return (dir_ / "store").string(); }

    static const TraceKey &key(int i)
    {
        static const TraceKey keys[] = {
            {false, "motion1", SimdKind::MMX64,
             TraceRepository::kernelImageBytes, TraceRepository::defaultSeed},
            {false, "motion2", SimdKind::MMX64,
             TraceRepository::kernelImageBytes, TraceRepository::defaultSeed},
        };
        return keys[i];
    }

    fs::path dir_;
};

/** DecodedInst is plain data; compare the identity-relevant fields (a
 *  full memcmp would be padding-sensitive). */
bool
sameDecode(const DecodedInst &a, const DecodedInst &b)
{
    return a.addr == b.addr && a.flags == b.flags && a.fu == b.fu &&
           a.latency == b.latency && a.dstReg == b.dstReg &&
           a.nSrcs == b.nSrcs;
}

// decoded() decodes the memoized trace on every call and keeps no copy:
// two calls are two decodes of one generation, and neither is a hit.
TEST_F(TraceRepoTest, DecodedDecodesAfreshOnEveryCall)
{
    TraceRepository repo;
    auto s1 = repo.decoded(key(0));
    auto s2 = repo.decoded(key(0));
    EXPECT_EQ(repo.generations(), 1u);
    TraceRepository::TierStats dec = repo.decodedStats();
    EXPECT_EQ(dec.hits, 0u);
    EXPECT_EQ(dec.fills, 2u);
    EXPECT_EQ(dec.bytes, 0u);

    DecodedStream expect = decodeStream(*repo.raw(key(0)));
    ASSERT_GT(expect.size(), 0u);
    for (const auto *s : {&s1, &s2}) {
        ASSERT_EQ(s->records(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_TRUE(sameDecode(s->stream().insts[i], expect.insts[i]))
                << "at " << i;
    }
}

// A raw fill is a trace materialized into the memo.  Streams keep
// nothing and never read the memo: each counts as a generation, never
// as a fill or a hit.
TEST_F(TraceRepoTest, RawFillsCountOnlyTierOneFills)
{
    TraceRepository repo;
    repo.stream(key(0), discardSink());
    repo.stream(key(1), discardSink());
    repo.stream(key(0), discardSink());
    EXPECT_EQ(repo.generations(), 3u);
    EXPECT_EQ(repo.rawStats().fills, 0u);
    EXPECT_EQ(repo.rawStats().bytes, 0u);

    // A raw() lookup fills and a second one hits; a stream of the
    // memoized key still generates.
    repo.raw(key(0));
    EXPECT_EQ(repo.generations(), 4u);
    EXPECT_EQ(repo.rawStats().fills, 1u);
    repo.raw(key(0));
    EXPECT_EQ(repo.rawStats().hits, 1u);
    repo.stream(key(0), discardSink());
    EXPECT_EQ(repo.generations(), 5u);
    EXPECT_EQ(repo.rawStats().fills, 1u);
    EXPECT_EQ(repo.rawStats().hits, 1u);
}

TEST_F(TraceRepoTest, DecodedMatchesPerRecordDecode)
{
    TraceRepository repo;
    auto raw = repo.raw(key(1));
    auto stream = repo.decoded(key(1));
    ASSERT_EQ(stream.records(), raw->size());
    for (size_t i = 0; i < raw->size(); ++i)
        EXPECT_TRUE(
            sameDecode(decodeInst((*raw)[i]), stream.stream().insts[i]))
            << "at " << i;
}

// The constructor's trailing arguments are the retired RAM budgets: a
// caller still asking for one is stopped, not silently ignored.
TEST_F(TraceRepoTest, NonzeroRetiredBudgetArgumentIsFatal)
{
    EXPECT_DEATH(TraceRepository(nullptr, 1, 0), "keeps no RAM budgets");
    EXPECT_DEATH(TraceRepository(nullptr, 0, 64 << 10),
                 "keeps no RAM budgets");
}

// A randomized ablation grid looked up point by point through raw() --
// four threads each running runSweepPoint over a slice of it, against
// one repository over a store -- is bit-identical to the same points
// run in an unshared repository: concurrent lookups build each key once
// and never change what a run computes.  The store the lookups wrote
// through then serves every trace to a fresh repository from disk.
TEST_F(TraceRepoTest, RandomizedGridSharedRepositoryBitIdentical)
{
    TraceStore store(storeDir());
    TraceRepository shared(&store);
    TraceRepository unshared;

    std::mt19937 rng(0x5eed);
    const std::vector<std::string> kernels = {"motion1", "comp", "addblock"};
    const SimdKind kinds[] = {SimdKind::MMX64, SimdKind::VMMX128};
    std::vector<SweepPoint> points;
    for (int i = 0; i < 18; ++i) {
        Config knobs;
        if (rng() % 2)
            knobs.set("core.rob", s64(16 << (rng() % 4)));
        if (rng() % 2)
            knobs.set("core.iq", s64(8 << (rng() % 3)));
        SweepPoint p;
        p.name = kernels[rng() % kernels.size()];
        p.kind = kinds[rng() % 2];
        p.way = 2u << (rng() % 3);
        p.overrides = knobs;
        points.push_back(std::move(p));
    }

    ExecutionPolicy sharedPolicy;
    sharedPolicy.repo = &shared;
    ExecutionPolicy unsharedPolicy;
    unsharedPolicy.repo = &unshared;

    constexpr size_t threads = 4;
    std::vector<SweepResult> a(points.size());
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (size_t i = t; i < points.size(); i += threads)
                a[i] = runSweepPoint(points[i], sharedPolicy);
        });
    for (auto &th : pool)
        th.join();
    for (size_t i = 0; i < points.size(); ++i) {
        SweepResult b = runSweepPoint(points[i], unsharedPolicy);
        EXPECT_TRUE(a[i].sameRun(b))
            << "point " << i << " (" << a[i].point.label() << ")";
    }

    // Each key was built once, whichever thread got there first.
    std::set<TraceKey> keys;
    for (const SweepPoint &p : points)
        keys.insert(traceKeyFor(p));
    EXPECT_EQ(shared.rawStats().fills, keys.size());
    EXPECT_EQ(shared.generations(), keys.size());
    EXPECT_EQ(shared.rawStats().hits, points.size() - keys.size());

    TraceRepository reloaded(&store);
    for (const TraceKey &k : keys)
        EXPECT_TRUE(*reloaded.raw(k) == *unshared.raw(k)) << k.describe();
    EXPECT_EQ(reloaded.diskLoads(), keys.size());
    EXPECT_EQ(reloaded.generations(), 0u);
}

// ---- streaming ------------------------------------------------------------

/** Collects streamed blocks as they arrive. */
struct CollectSink : TraceSink
{
    std::vector<std::vector<InstRecord>> blocks;
    int restarts = 0;

    void
    put(std::vector<InstRecord> &block) override
    {
        blocks.push_back(block);
        block.clear();
    }
    void
    restart() override
    {
        blocks.clear();
        ++restarts;
    }
    std::vector<InstRecord>
    joined() const
    {
        std::vector<InstRecord> all;
        for (const auto &b : blocks)
            all.insert(all.end(), b.begin(), b.end());
        return all;
    }
};

/** A kernel trace longer than one stream block (49946 records). */
const TraceKey &
longKey()
{
    static const TraceKey key{false, "ycc", SimdKind::MMX64,
                              TraceRepository::kernelImageBytes,
                              TraceRepository::defaultSeed};
    return key;
}

std::vector<MachineConfig>
threeWidths(SimdKind kind)
{
    return {makeMachine(kind, 2), makeMachine(kind, 4),
            makeMachine(kind, 8)};
}

TEST_F(TraceRepoTest, ProgramSinkBlocksConcatenateToTakeTrace)
{
    const std::vector<InstRecord> whole = generateTrace(longKey());
    ASSERT_GT(whole.size(), traceBlockRecords);

    // The repository's generator: full blocks, then the remainder.
    CollectSink generated;
    generateTrace(longKey(), generated);
    ASSERT_EQ(generated.blocks.size(), 2u);
    EXPECT_EQ(generated.blocks[0].size(), traceBlockRecords);
    EXPECT_TRUE(generated.joined() == whole);

    // A Program streaming in small blocks, driven by hand.
    CollectSink small;
    {
        auto k = makeKernel(longKey().name);
        MemImage mem(longKey().imageBytes);
        Rng rng(longKey().seed);
        k->prepare(mem, rng);
        Program p(mem, longKey().kind);
        p.streamTo(small, 1000);
        k->emit(p);
        p.finishStream();
        EXPECT_TRUE(p.trace().empty());
    }
    ASSERT_EQ(small.blocks.size(), (whole.size() + 999) / 1000);
    for (size_t b = 0; b + 1 < small.blocks.size(); ++b)
        EXPECT_EQ(small.blocks[b].size(), 1000u) << "block " << b;
    EXPECT_TRUE(small.joined() == whole);
}

TEST_F(TraceRepoTest, StreamedReplayMatchesRunTraceForAnySplit)
{
    const std::vector<InstRecord> whole = generateTrace(longKey());
    ASSERT_GT(whole.size(), size_t(32769));
    // One configuration takes the fused step, three the batched path.
    std::vector<MachineConfig> three = threeWidths(longKey().kind);
    std::vector<std::vector<MachineConfig>> groups = {{three[1]}, three};
    for (const auto &machines : groups) {
        std::vector<RunResult> expect;
        for (const MachineConfig &m : machines)
            expect.push_back(runTrace(m, whole));
        for (size_t split : {size_t(1), size_t(7), size_t(32767),
                             size_t(32768), size_t(32769), whole.size()}) {
            TraceReplay replay(machines);
            std::vector<InstRecord> block;
            for (size_t base = 0; base < whole.size(); base += split) {
                size_t n = std::min(split, whole.size() - base);
                block.assign(whole.begin() + std::ptrdiff_t(base),
                             whole.begin() + std::ptrdiff_t(base + n));
                replay.put(block);
                EXPECT_TRUE(block.empty());
            }
            EXPECT_EQ(replay.records(), whole.size());
            std::vector<RunResult> got = replay.finish();
            ASSERT_EQ(got.size(), expect.size());
            for (size_t i = 0; i < expect.size(); ++i)
                EXPECT_TRUE(got[i] == expect[i])
                    << machines.size() << " configs, split " << split
                    << ", config " << i;
        }
    }
}

// The serial executor's pipeline in miniature: a producer thread
// streams traces through the ring (with a restart mid-trace, as a
// malformed store read would send) while this thread replays them.
TEST_F(TraceRepoTest, RingCarriesTracesBetweenThreads)
{
    const std::vector<InstRecord> whole = generateTrace(longKey());
    std::vector<MachineConfig> machines = threeWidths(longKey().kind);
    std::vector<RunResult> expect = runTraceBatch(machines, whole);

    TraceRing ring(2);
    std::thread producer([&] {
        for (int trace = 0; trace < 3; ++trace) {
            if (trace == 1) {
                // An abandoned first attempt: half the trace, then a
                // restart before the real one.
                std::vector<InstRecord> half(
                    whole.begin(),
                    whole.begin() + std::ptrdiff_t(whole.size() / 2));
                ring.put(half);
                ring.restart();
            }
            generateTrace(longKey(), ring);
            ring.endTrace();
        }
    });
    for (int trace = 0; trace < 3; ++trace) {
        TraceReplay replay(machines);
        ring.drain(replay);
        EXPECT_EQ(replay.records(), whole.size()) << "trace " << trace;
        std::vector<RunResult> got = replay.finish();
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_TRUE(got[i] == expect[i])
                << "trace " << trace << ", config " << i;
    }
    producer.join();
}

// Failure crosses the ring both ways: the producer's exception reaches
// the consumer after the entries queued before it, and a closed ring
// turns the producer's next put into an exception it can unwind on.
TEST_F(TraceRepoTest, RingForwardsFailureBothWays)
{
    TraceRing ring(2);
    std::vector<InstRecord> block(3);
    ring.put(block);
    ring.endTrace();
    ring.fail(std::make_exception_ptr(std::runtime_error("generator")));
    CollectSink sink;
    ring.drain(sink);
    EXPECT_EQ(sink.joined().size(), 3u);
    EXPECT_THROW(ring.drain(sink), std::runtime_error);

    TraceRing closed(1);
    std::thread producer([&] {
        std::vector<InstRecord> b(1);
        // The first put fits, the second waits for room until close().
        EXPECT_THROW(
            {
                closed.put(b);
                b.resize(1);
                closed.put(b);
            },
            std::runtime_error);
    });
    closed.close();
    producer.join();
}

std::vector<u8>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST_F(TraceRepoTest, WriteThroughStoreFileMatchesSave)
{
    TraceStore streamed(storeDir() + "-streamed");
    TraceStore saved(storeDir() + "-saved");
    for (const TraceKey &k : {key(0), longKey()}) {
        TraceRepository repo(&streamed);
        CollectSink sink;
        repo.stream(k, sink); // a miss: generated and written through
        EXPECT_EQ(repo.generations(), 1u);
        EXPECT_EQ(streamed.saves(), k == key(0) ? 1u : 2u);

        std::vector<InstRecord> whole = generateTrace(k);
        EXPECT_TRUE(sink.joined() == whole);
        ASSERT_TRUE(saved.save(k, whole));
        std::vector<u8> a = readFile(streamed.path(k));
        ASSERT_FALSE(a.empty());
        EXPECT_TRUE(a == readFile(saved.path(k))) << k.describe();

        // ...and it streams back from disk without regenerating.
        CollectSink again;
        repo.stream(k, again);
        EXPECT_EQ(repo.generations(), 1u);
        EXPECT_EQ(repo.diskLoads(), 1u);
        EXPECT_TRUE(again.joined() == whole);
        EXPECT_EQ(repo.rawStats().bytes, 0u);
    }
}

TEST_F(TraceRepoTest, MalformedStoreRecordsAreAMissNotAPartialTrace)
{
    const TraceKey &k = longKey();
    const std::vector<InstRecord> whole = generateTrace(k);
    TraceStore store(storeDir());
    ASSERT_TRUE(store.save(k, whole));

    // Damage the opcode of record 40000 -- in the second block, after a
    // whole block has streamed -- and re-seal the file with a valid
    // checksum, so only the record decoder can notice.
    const size_t bad = 40000;
    ASSERT_GT(whole.size(), bad);
    auto encodedBytes = [](std::span<const InstRecord> records) {
        wire::Writer w;
        TraceEncoder enc;
        enc.add(records);
        enc.finish(w);
        wire::Writer count;
        count.varint(records.size());
        return w.size() - count.size(); // without the count prefix
    };
    std::vector<u8> file = readFile(store.path(k));
    size_t body = file.size() - 8 - encodedBytes(whole);
    size_t at = body + encodedBytes(std::span(whole).first(bad));
    ASSERT_EQ(file[at], u8(whole[bad].op));
    file[at] = 0xff;
    u64 sum = wire::fnv1a(file.data(), file.size() - 8);
    for (int b = 0; b < 8; ++b)
        file[file.size() - 8 + size_t(b)] = u8(sum >> (8 * b));
    auto reseal = [&] {
        std::ofstream out(store.path(k), std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(file.data()),
                  std::streamsize(file.size()));
    };
    reseal();

    // The store reader: one block went out before the damage showed,
    // so the sink is told to restart and left empty; a counted miss.
    CollectSink sink;
    EXPECT_FALSE(store.stream(k, sink));
    EXPECT_EQ(sink.restarts, 1);
    EXPECT_TRUE(sink.blocks.empty());
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.load(k), nullptr);
    EXPECT_EQ(store.misses(), 2u);

    // A unit replaying the trace: the partial pass is discarded, the
    // trace regenerated (and the file repaired by the write-through),
    // and the results are exactly the regenerated run's.
    std::vector<MachineConfig> machines = threeWidths(k.kind);
    std::vector<RunResult> expect = runTraceBatch(machines, whole);
    TraceRepository repo(&store);
    SweepPoint lead;
    lead.workload = SweepPoint::Workload::Kernel;
    lead.name = k.name;
    lead.kind = k.kind;
    u64 length = 0;
    std::vector<RunResult> got = replayUnit(lead, machines, repo, length);
    EXPECT_EQ(length, whole.size());
    EXPECT_EQ(repo.diskLoads(), 0u);
    EXPECT_EQ(repo.generations(), 1u);
    EXPECT_EQ(store.misses(), 3u);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(got[i] == expect[i]) << "config " << i;
    SharedTrace repaired = store.load(k);
    ASSERT_NE(repaired, nullptr);
    EXPECT_TRUE(*repaired == whole);
}

} // namespace
} // namespace vmmx
