/**
 * @file
 * Seeded mutation tests of the inputs a run reads from outside its own
 * process: protocol frames, trace-store files, the crash journal and
 * study spec text.  Every mutant is a fixed-seed edit of a valid input
 * -- bit flips, truncation, byte insert and delete, 0xff overwrites --
 * and every reader must accept or reject it cleanly: no read past the
 * end of the input (the ASan and UBSan builds run this suite through
 * ctest), no half-delivered trace, no result that differs from the
 * oracle, and no accepted spec that cannot be written back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dist/driver.hh"
#include "dist/protocol.hh"
#include "harness/harness_io.hh"
#include "harness/study.hh"
#include "trace/trace_repo.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;

namespace vmmx
{
namespace
{

/** One to three random edits of @p bytes. */
std::vector<u8>
mutate(std::vector<u8> bytes, Rng &rng)
{
    for (u64 edits = 1 + rng.below(3); edits > 0; --edits) {
        size_t at = size_t(rng.below(bytes.size() + 1));
        switch (rng.below(5)) {
          case 0: // bit flip
            if (at < bytes.size())
                bytes[at] ^= u8(1u << rng.below(8));
            break;
          case 1: // truncate
            bytes.resize(at);
            break;
          case 2: // insert a byte
            bytes.insert(bytes.begin() + std::ptrdiff_t(at), rng.byte());
            break;
          case 3: // delete a byte
            if (at < bytes.size())
                bytes.erase(bytes.begin() + std::ptrdiff_t(at));
            break;
          default: { // overwrite a short run with 0xff
            size_t n = std::min<size_t>(1 + rng.below(8), bytes.size() - at);
            std::fill_n(bytes.begin() + std::ptrdiff_t(at), n, u8(0xff));
            break;
          }
        }
    }
    // An exactly sized copy, so ASan flags any read past the end.
    return std::vector<u8>(bytes.begin(), bytes.end());
}

std::vector<u8>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<u8>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<u8> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

class FuzzTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true); // damaged inputs warn on every mutant
        dir_ = fs::temp_directory_path() /
               ("vmmx-fuzz-test-" + std::to_string(::getpid()) + "-" +
                testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

/** One valid frame of every type a driver or worker decodes. */
std::vector<std::vector<u8>>
seedFrames()
{
    dist::SetupMsg setup;
    setup.storeDir = "/var/tmp/store";
    setup.workerId = 3;
    setup.telemetry = true;

    StudySpec spec;
    spec.kernels = {"idct", "comp"};
    spec.ways = {2, 8};
    spec.overrideSets = {Config({"core.rob=32", "mem.mshrs=4"}),
                         Config({"mem.latency=200"})};
    dist::JobGroupMsg group;
    for (const SweepPoint &p : Study(spec).points()) {
        group.indices.push_back(u32(group.indices.size() * 7));
        group.points.push_back(p);
    }

    dist::ResultMsg result;
    result.index = 17;
    result.traceLength = 123456;
    result.result.core.cycles = 987654321;
    result.result.core.instructions = 123456;
    result.result.l1Hits = 4242;
    result.result.vecAccesses = 99;

    dist::StatsMsg stats;
    stats.generations = 12;
    stats.diskLoads = 300;
    stats.storeSaves = u64(1) << 40;

    dist::EventMsg event;
    event.workerId = 2;
    event.pid = 4711;
    telemetry::SpanRecord span;
    span.name = "simulate";
    span.detail = "idct/vmmx128/4-way simd=avx2";
    span.startNs = 1'000'000'000;
    span.durNs = 42'000;
    span.tid = 1;
    event.spans = {span, span};
    telemetry::UnitRecord unit;
    unit.traceHash = 0xfeedface;
    unit.label = "idct/vmmx128/4-way";
    unit.points = 3;
    unit.records = 4890;
    unit.wallNs = 31'000'000;
    unit.simd = "avx512";
    event.units = {unit};

    return {dist::encode(setup),          dist::encode(group),
            dist::encode(result),         dist::encode(stats),
            dist::encodeError("bad unit"), dist::encode(event)};
}

// Every decoder is offered every mutant -- a flipped type byte hands a
// frame to the wrong decoder -- and must answer true or false without
// reading outside the frame.  What a decoder accepts must survive its
// own encoder: decode(encode(m)) succeeds and re-encodes to the same
// bytes.
TEST_F(FuzzTest, MutatedFramesDecodeOrFailCleanly)
{
    Rng rng(0xf4a3e5);
    const std::vector<std::vector<u8>> seeds = seedFrames();
    size_t accepted = 0;
    auto stable = [&](const auto &msg) {
        std::vector<u8> again = dist::encode(msg);
        std::decay_t<decltype(msg)> back;
        ASSERT_TRUE(dist::decode(again, back));
        EXPECT_TRUE(dist::encode(back) == again);
        ++accepted;
    };
    for (const std::vector<u8> &seed : seeds) {
        for (int i = 0; i < 20000; ++i) {
            std::vector<u8> frame = mutate(seed, rng);
            dist::SetupMsg setup;
            dist::JobGroupMsg group;
            dist::ResultMsg result;
            dist::StatsMsg stats;
            dist::EventMsg event;
            std::string what;
            if (dist::decode(frame, setup))
                stable(setup);
            if (dist::decode(frame, group))
                stable(group);
            if (dist::decode(frame, result))
                stable(result);
            if (dist::decode(frame, stats))
                stable(stats);
            if (dist::decode(frame, event))
                stable(event);
            dist::decodeError(frame, what);
        }
    }
    // Most single edits of a varint-heavy frame still decode; the
    // loop must have exercised the accepting paths, not only rejects.
    EXPECT_GT(accepted, 1000u);
}

/** Records a streamed trace the way a consumer sees it. */
class CollectSink : public TraceSink
{
  public:
    void
    put(std::vector<InstRecord> &block) override
    {
        records.insert(records.end(), block.begin(), block.end());
        block.clear();
    }
    void
    restart() override
    {
        records.clear();
        ++restarts;
    }

    std::vector<InstRecord> records;
    size_t restarts = 0;
};

// A store file whose payload is damaged but whose checksum matches (a
// writer bug, not bit rot) reaches the record decoder.  stream() must
// then deliver the whole trace or leave the sink empty, and agree with
// load() on which.
TEST_F(FuzzTest, MutatedStoreFilesStreamWholeOrNothing)
{
    TraceRepository repo;
    TraceKey key{false, "comp", SimdKind::MMX64,
                 TraceRepository::kernelImageBytes,
                 TraceRepository::defaultSeed};
    // Repeat a short kernel trace past one stream block, so damage in
    // a later block exercises the sink's restart().
    SharedTrace one = repo.raw(key).shared();
    std::vector<InstRecord> trace;
    while (trace.size() <= traceBlockRecords)
        trace.insert(trace.end(), one->begin(), one->end());

    TraceStore store(dir_.string());
    ASSERT_TRUE(store.save(key, trace));
    const std::string file = store.path(key);
    const std::vector<u8> good = readFile(file);
    ASSERT_GT(good.size(), 16u);
    const std::vector<u8> body(good.begin(), good.end() - 8);

    Rng rng(0x5704e);
    size_t whole = 0, rejected = 0, restarts = 0;
    for (int i = 0; i < 300; ++i) {
        std::vector<u8> bytes = mutate(body, rng);
        wire::Writer sum;
        sum.fixed64(wire::fnv1a(bytes.data(), bytes.size()));
        bytes.insert(bytes.end(), sum.buffer().begin(), sum.buffer().end());
        writeFile(file, bytes);

        CollectSink sink;
        bool streamed = store.stream(key, sink);
        SharedTrace loaded = store.load(key);
        ASSERT_EQ(streamed, loaded != nullptr) << "mutant " << i;
        if (streamed) {
            EXPECT_TRUE(sink.records == *loaded) << "mutant " << i;
            ++whole;
        } else {
            EXPECT_TRUE(sink.records.empty()) << "mutant " << i;
            ++rejected;
        }
        restarts += sink.restarts;
    }
    EXPECT_GT(whole, 0u);
    EXPECT_GT(rejected, 0u);
    // Some damage lies past the first block, after a put().
    EXPECT_GT(restarts, 0u);
}

// A damaged journal costs only recomputation: whatever survives the
// damage resumes, everything else reruns, and the results are those of
// the oracle.  The rerun leaves a complete journal behind.
TEST_F(FuzzTest, MutatedJournalsResumeBitIdentical)
{
    StudySpec spec; // test_dist's grid: 24 points, 12 traces
    spec.kernels = {"motion1", "motion2", "comp"};
    spec.ways = {2, 4};
    const std::vector<SweepPoint> points = Study(spec).points();

    TraceRepository oracleRepo;
    ExecutionPolicy reference;
    reference.repo = &oracleRepo;
    std::vector<SweepResult> expect;
    for (const SweepPoint &p : points)
        expect.push_back(runSweepPoint(p, reference));

    ExecutionPolicy policy;
    policy.backend = ExecutionPolicy::Backend::Process;
    policy.processes = 1;
    policy.execPath = "/proc/self/exe"; // tests/main.cc serves workers
    policy.storeDir = (dir_ / "store").string();
    policy.journalPath = (dir_ / "sweep.vmjl").string();
    dist::runSweep(points, policy);
    const std::vector<u8> good = readFile(policy.journalPath);

    Rng rng(0x10a1);
    for (int i = 0; i < 64; ++i) {
        writeFile(policy.journalPath, mutate(good, rng));
        dist::DistStats stats;
        policy.distStats = &stats;
        std::vector<SweepResult> got = dist::runSweep(points, policy);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t k = 0; k < expect.size(); ++k)
            EXPECT_TRUE(got[k].sameRun(expect[k]))
                << "mutant " << i << ", point " << k;
        EXPECT_EQ(stats.jobsResumed + stats.jobsRun, points.size())
            << "mutant " << i;

        dist::DistStats again;
        policy.distStats = &again;
        dist::runSweep(points, policy);
        EXPECT_EQ(again.jobsResumed, points.size()) << "mutant " << i;
    }
}

// Every spec text that parses is one formatStudySpec() can write and
// parseStudySpec() reads back to an equal spec.
TEST_F(FuzzTest, MutatedSpecTextRoundTripsWhenItParses)
{
    const fs::path source =
        fs::path(__FILE__).parent_path().parent_path() / "specs/fig5.study";
    const std::vector<u8> good = readFile(source.string());
    ASSERT_FALSE(good.empty()) << source;

    Rng rng(0x5bec);
    size_t parsed = 0;
    for (int i = 0; i < 40000; ++i) {
        std::vector<u8> bytes = mutate(good, rng);
        StudySpec spec;
        std::string err;
        if (!parseStudySpec(std::string(bytes.begin(), bytes.end()), spec,
                            err))
            continue;
        ++parsed;
        StudySpec back;
        ASSERT_TRUE(parseStudySpec(formatStudySpec(spec), back, err))
            << "mutant " << i << ": " << err;
        EXPECT_TRUE(back == spec) << "mutant " << i;
    }
    EXPECT_GT(parsed, 1000u);
}

} // namespace
} // namespace vmmx
