/**
 * @file
 * Distributed sweep subsystem tests.
 *
 * The headline guarantees: a multi-process sharded sweep is bit-identical
 * to the serial in-process sweep on the same grid; a second run of the
 * same grid is served entirely from the on-disk TraceStore (zero trace
 * regenerations); a worker failure ends the run, with no worker left
 * behind; and an interrupted journaled run resumes without re-executing
 * completed grid points.  Plus the TraceStore (tier-0)
 * mechanics: round trips and corruption tolerance.  The tiered
 * repository itself lives in tests/test_trace_repo.cc.
 *
 * Workers are this test binary, started through "/proc/self/exe" with
 * "--worker --fd N" (tests/main.cc serves that argv), so every case runs
 * the exec'd workers vmmx_study ships.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/worker.hh"
#include "harness/study.hh"
#include "trace/trace_repo.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;

namespace vmmx
{
namespace
{

class DistTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        dir_ = fs::temp_directory_path() /
               ("vmmx-dist-test-" + std::to_string(::getpid()) + "-" +
                testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string storeDir() const { return (dir_ / "store").string(); }
    std::string journalPath() const { return (dir_ / "sweep.vmjl").string(); }

    /** 3 kernels x 4 flavours x 2 widths = 24 points, 12 distinct
     *  traces.  Short-trace kernels keep the suite fast. */
    static std::vector<SweepPoint> gridPoints()
    {
        StudySpec spec;
        spec.kernels = {"motion1", "motion2", "comp"};
        spec.ways = {2, 4};
        return Study(spec).points();
    }

    /** The materialize-then-replay oracle, in a private repository. */
    std::vector<SweepResult>
    runReference(const std::vector<SweepPoint> &points)
    {
        ExecutionPolicy reference;
        reference.repo = &serialRepo_;
        std::vector<SweepResult> results;
        for (const SweepPoint &p : points)
            results.push_back(runSweepPoint(p, reference));
        return results;
    }

    std::vector<SweepResult> runSerial() { return runReference(gridPoints()); }

    /** Two worker processes, this test binary, over this test's
     *  store; the other knobs keep their defaults. */
    ExecutionPolicy processPolicy() const
    {
        ExecutionPolicy p;
        p.backend = ExecutionPolicy::Backend::Process;
        p.processes = 2;
        p.storeDir = storeDir();
        p.execPath = "/proc/self/exe";
        return p;
    }

    fs::path dir_;
    TraceRepository serialRepo_;
};

// The ISSUE acceptance test: 2-process sharded run of a >= 24-point grid
// is bit-identical to the serial sweep, and a second run of the same grid
// is served from the on-disk TraceStore with zero trace regenerations.
TEST_F(DistTest, TwoProcessShardedSweepBitIdenticalAndStoreReuse)
{
    auto expect = runSerial();
    ASSERT_GE(expect.size(), 24u);

    auto points = gridPoints();
    ExecutionPolicy policy = processPolicy();
    dist::DistStats first;
    policy.distStats = &first;

    auto got = dist::runSweep(points, policy);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(got[i].sameRun(expect[i]))
            << "point " << i << " (" << expect[i].point.label() << ")";
        EXPECT_EQ(got[i].point.label(), expect[i].point.label());
    }
    EXPECT_EQ(first.workers, 2u);
    EXPECT_EQ(first.jobsRun, expect.size());
    // 12 distinct traces and an empty store: every one was generated.
    EXPECT_GE(first.generations, 12u);
    EXPECT_EQ(first.storeSaves, first.generations);

    // Second run of the same grid: every trace comes off disk.
    dist::DistStats second;
    policy.distStats = &second;
    auto rerun = dist::runSweep(points, policy);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "rerun point " << i;
    EXPECT_EQ(second.generations, 0u) << "trace regenerated despite store";
    EXPECT_GE(second.diskLoads, 12u);
}

TEST_F(DistTest, OddWorkerCountsStayIdentical)
{
    auto expect = runSerial();

    for (unsigned processes : {1u, 3u}) {
        ExecutionPolicy policy = processPolicy();
        policy.processes = processes;
        dist::DistStats stats;
        policy.distStats = &stats;
        auto got = dist::runSweep(gridPoints(), policy);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i)
            EXPECT_TRUE(got[i].sameRun(expect[i]))
                << processes << " workers, point " << i;
        EXPECT_EQ(stats.workers, processes);
    }
}

TEST_F(DistTest, OneTraceGroupRunsOnOneWorker)
{
    std::vector<SweepPoint> points;
    for (unsigned way : {2u, 4u, 8u})
        points.push_back({SweepPoint::Workload::Kernel, "addblock",
                          SimdKind::MMX64, way, {}});
    ASSERT_EQ(groupPointsByTrace(points).size(), 1u);
    auto expect = runReference(points);

    // The three points are one trace group, so one JobGroup frame feeds
    // a single worker: with more workers than units, the driver must
    // clamp.
    ExecutionPolicy policy = processPolicy();
    policy.processes = 8;
    dist::DistStats stats;
    policy.distStats = &stats;
    auto got = dist::runSweep(points, policy);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(got[i].sameRun(expect[i])) << "point " << i;
    EXPECT_EQ(stats.workers, 1u);
    EXPECT_EQ(stats.groupsRun, 1u);
    EXPECT_EQ(stats.jobsRun, expect.size());
}

// The driver shards by trace group -- each group crosses the wire once
// and runs as one batched pass on the worker -- and the aggregated
// results are still bit-identical to the serial per-point sweep.
TEST_F(DistTest, TraceGroupShardingBitIdenticalToSerial)
{
    auto expect = runSerial();
    ASSERT_EQ(expect.size(), 24u);

    auto points = gridPoints();
    ExecutionPolicy policy = processPolicy();
    dist::DistStats stats;
    policy.distStats = &stats;

    auto got = dist::runSweep(points, policy);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(got[i].sameRun(expect[i]))
            << "point " << i << " (" << expect[i].point.label() << ")";
        EXPECT_EQ(got[i].point.label(), expect[i].point.label());
    }
    // 12 (kernel, flavour) traces x 2 widths: every dispatch is a whole
    // group, every point still runs and journals individually.
    EXPECT_EQ(stats.workers, 2u);
    EXPECT_EQ(stats.jobsRun, 24u);
    EXPECT_EQ(stats.groupsRun, 12u);
}

TEST_F(DistTest, JournalResumeSkipsCompletedJobs)
{
    auto expect = runSerial();

    auto points = gridPoints();
    ExecutionPolicy policy = processPolicy();
    policy.journalPath = journalPath();
    dist::DistStats first;
    policy.distStats = &first;
    ::setenv("VMMX_JOURNAL_SYNC", "1", 1); // fdatasync every entry
    dist::runSweep(points, policy);
    ::unsetenv("VMMX_JOURNAL_SYNC");
    EXPECT_EQ(first.jobsRun, expect.size());
    EXPECT_EQ(first.jobsResumed, 0u);

    // The journal survives success; a rerun restores every point without
    // spawning a single worker.
    dist::DistStats second;
    policy.distStats = &second;
    auto rerun = dist::runSweep(points, policy);
    EXPECT_EQ(second.jobsRun, 0u);
    EXPECT_EQ(second.jobsResumed, expect.size());
    EXPECT_EQ(second.workers, 0u);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "resumed point " << i;
}

TEST_F(DistTest, TruncatedJournalResumesThePrefix)
{
    auto expect = runSerial();

    auto points = gridPoints();
    ExecutionPolicy policy = processPolicy();
    policy.journalPath = journalPath();
    dist::runSweep(points, policy);

    // Chop mid-entry, as a crash during an append would.
    auto size = fs::file_size(journalPath());
    fs::resize_file(journalPath(), size - 5);

    dist::DistStats stats;
    policy.distStats = &stats;
    auto rerun = dist::runSweep(points, policy);
    EXPECT_EQ(stats.jobsResumed, expect.size() - 1)
        << "exactly the damaged trailing entry should rerun";
    EXPECT_EQ(stats.jobsRun, 1u);
    EXPECT_EQ(stats.journalSkipped, 1u);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "point " << i;
}

// A journal resumes only under the signature of the grid that wrote it,
// so a codec change that moves the signature orphans every journal on
// disk.  This is the grid of specs/dist_smoke.study.
TEST_F(DistTest, GridSignatureIsStable)
{
    EXPECT_EQ(dist::gridSignature(gridPoints()), 0xe0e062714177c79full);
}

TEST_F(DistTest, JournalForADifferentGridIsDiscarded)
{
    ExecutionPolicy policy = processPolicy();
    policy.journalPath = journalPath();
    dist::runSweep(gridPoints(), policy);

    // Same journal path, different grid: must start fresh, not resume.
    dist::DistStats stats;
    policy.distStats = &stats;
    auto got = dist::runSweep({{SweepPoint::Workload::Kernel, "ltpfilt",
                                SimdKind::VMMX128, 4, {}}},
                              policy);
    EXPECT_EQ(stats.jobsResumed, 0u);
    EXPECT_EQ(stats.jobsRun, 1u);

    TraceRepository repo;
    auto trace = repo.kernel("ltpfilt", SimdKind::VMMX128);
    RunResult direct = runTrace(makeMachine(SimdKind::VMMX128, 4), *trace);
    EXPECT_TRUE(got[0].result == direct);
}

// A worker failure ends the run.  The unit that killed one worker
// would kill every retry of it, so the driver stops every other worker
// and fails once, naming the slot, the unit's lead point and how the
// worker ended.
TEST_F(DistTest, WorkerFailureEndsTheRun)
{
    // The bad point leads the grid, so its unit goes to slot 0 while
    // slot 1 is still busy with the first good one.
    std::vector<SweepPoint> points = gridPoints();
    points.insert(points.begin(), {SweepPoint::Workload::Kernel, "nosuch",
                                   SimdKind::MMX64, 2, {}});
    ExecutionPolicy policy = processPolicy();

    // The run's stderr goes to a file, to count its lines.  At exit the
    // driver must have reaped every worker: a child still alive or
    // unreaped means one outlived it.  The exit hook also appends its
    // process to a second file.  Workers are exec'd, so they never
    // carry the hook: it must run once, in the driver, even though the
    // failing worker leaves through fatal().
    const std::string log = (dir_ / "stderr.txt").string();
    static char exitLog[4096];
    static pid_t driverPid;
    std::snprintf(exitLog, sizeof exitLog, "%s",
                  (dir_ / "atexit.txt").string().c_str());
    EXPECT_EXIT(
        {
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            ::dup2(fd, STDERR_FILENO);
            driverPid = ::getpid();
            std::atexit([] {
                if (FILE *f = std::fopen(exitLog, "a")) {
                    std::fprintf(f, "%s %d\n",
                                 ::getpid() == driverPid ? "driver" : "worker",
                                 int(::getpid()));
                    std::fclose(f);
                }
                if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD)
                    std::fputs("a worker outlived the driver\n", stderr);
            });
            dist::runSweep(points, policy);
        },
        testing::ExitedWithCode(1), "");

    // The hook ran exactly once, in the driver.
    std::ifstream exits(exitLog);
    std::string exitText{std::istreambuf_iterator<char>(exits), {}};
    EXPECT_EQ(exitText.rfind("driver ", 0), 0u) << exitText;
    EXPECT_EQ(std::count(exitText.begin(), exitText.end(), '\n'), 1)
        << exitText;

    std::ifstream in(log);
    std::string text{std::istreambuf_iterator<char>(in), {}};
    auto count = [&](const std::string &needle) {
        size_t n = 0;
        for (size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1))
            ++n;
        return n;
    };
    // One worker ran the unit and died; nobody retried it.
    EXPECT_EQ(count("fatal: unknown kernel 'nosuch'"), 1u) << text;
    EXPECT_EQ(count("outlived"), 0u) << text;
    EXPECT_EQ(count("fatal: worker slot "), 1u) << text;
    EXPECT_EQ(count("fatal: worker slot 0 failed on unit "
                    "'nosuch/mmx64/2-way' (exit 1): connection closed"),
              1u)
        << text;
}

// The worker hook serves only a descriptor it can parse: junk, a
// negative number or one past int is fatal before any frame is read,
// never a silent serve on fd 0.
TEST_F(DistTest, WorkerModeRejectsAnUnparsableFd)
{
    for (const char *fd : {"junk", "", "-1", "2147483648"}) {
        const char *argv[] = {"vmmx_study", "--worker", "--fd", fd};
        EXPECT_EXIT(dist::maybeWorkerMain(4, const_cast<char **>(argv)),
                    testing::ExitedWithCode(1),
                    "--worker requires --fd <descriptor> \\(got '")
            << "'" << fd << "'";
    }
}

// The processes backend has one way to start a worker, and no default
// binary: an empty execPath fails before any worker starts, naming the
// field to set.
TEST_F(DistTest, EmptyExecPathIsFatal)
{
    ExecutionPolicy policy = processPolicy();
    policy.execPath.clear();
    EXPECT_EXIT(dist::runSweep(gridPoints(), policy),
                testing::ExitedWithCode(1),
                "fatal: the processes backend needs "
                "ExecutionPolicy::execPath");
}

// A worker binary that cannot be started fails the run with the path
// and the reason, not as a worker that died on its first unit.
TEST_F(DistTest, MissingWorkerBinaryIsFatal)
{
    ExecutionPolicy policy = processPolicy();
    policy.execPath = (dir_ / "no-such-binary").string();
    EXPECT_EXIT(dist::runSweep(gridPoints(), policy),
                testing::ExitedWithCode(1),
                "fatal: cannot start worker '.*/no-such-binary': No such "
                "file or directory");
}

// Workers ship their spans and unit records back as Event frames, and
// the driver merges them into its own buffers.  What the driver had
// buffered before the run must come out exactly once and still its
// own: a worker is a fresh image and has none of it to send back.
TEST_F(DistTest, WorkerEventsMergeWithoutEchoingTheDriver)
{
    const std::vector<SweepPoint> points = gridPoints();
    const size_t units = groupPointsByTrace(points).size();
    telemetry::Tracer &tracer = telemetry::Tracer::instance();
    telemetry::Registry &reg = telemetry::Registry::instance();
    tracer.clear();
    reg.clear();
    telemetry::setEnabled(true);
    {
        TELEMETRY_SPAN("driver.marker");
    }
    telemetry::UnitRecord marker;
    marker.label = "driver.marker";
    reg.addUnit(std::move(marker));

    dist::runSweep(points, processPolicy());
    telemetry::setEnabled(false);
    std::vector<telemetry::SpanRecord> spans = tracer.drain();
    std::vector<telemetry::UnitRecord> records = reg.drainUnits();
    reg.clear();

    size_t markerSpans = 0, markerUnits = 0, workerUnits = 0;
    for (const telemetry::SpanRecord &span : spans) {
        if (span.name != "driver.marker")
            continue;
        ++markerSpans;
        EXPECT_EQ(span.workerId, -1);
    }
    for (const telemetry::UnitRecord &u : records) {
        if (u.label == "driver.marker") {
            ++markerUnits;
            EXPECT_EQ(u.workerId, -1);
        } else if (u.workerId >= 0) {
            ++workerUnits;
        }
    }
    EXPECT_EQ(markerSpans, 1u);
    EXPECT_EQ(markerUnits, 1u);
    EXPECT_EQ(records.size(), units + 1);
    EXPECT_EQ(workerUnits, units) << "every unit's record came back";
}

TEST_F(DistTest, MidFileJournalCorruptionSkipsOnlyThatEntry)
{
    auto expect = runSerial();
    auto points = gridPoints();

    ExecutionPolicy policy = processPolicy();
    policy.journalPath = journalPath();
    dist::runSweep(points, policy);

    // Flip a byte inside the FIRST entry's payload (16-byte header,
    // 4-byte length prefix): the framing stays intact, so only this one
    // entry is damaged and everything after it must still restore.
    {
        std::fstream f(journalPath(), std::ios::in | std::ios::out |
                                          std::ios::binary);
        f.seekg(16 + 4 + 2);
        char c;
        f.get(c);
        f.seekp(16 + 4 + 2);
        f.put(char(c ^ 0x01));
    }

    dist::DistStats stats;
    policy.distStats = &stats;
    auto rerun = dist::runSweep(points, policy);
    EXPECT_EQ(stats.journalSkipped, 1u);
    EXPECT_EQ(stats.jobsResumed, expect.size() - 1);
    EXPECT_EQ(stats.jobsRun, 1u);
    for (size_t i = 0; i < expect.size(); ++i)
        EXPECT_TRUE(rerun[i].sameRun(expect[i])) << "point " << i;
}

TEST_F(DistTest, TraceStoreRoundTripAndCorruptionTolerance)
{
    TraceStore store(storeDir());
    TraceRepository repo;
    TraceKey key{false, "idct", SimdKind::VMMX64,
                 TraceRepository::kernelImageBytes,
                 TraceRepository::defaultSeed};
    SharedTrace trace = repo.raw(key).shared();

    EXPECT_EQ(store.load(key), nullptr); // empty store: miss
    EXPECT_EQ(store.misses(), 1u);
    ASSERT_TRUE(store.save(key, *trace));
    EXPECT_TRUE(store.contains(key));

    SharedTrace back = store.load(key);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(*back == *trace);

    // A different key never aliases the stored file.
    TraceKey other = key;
    other.seed ^= 1;
    EXPECT_EQ(store.load(other), nullptr);

    // Flip one payload byte: checksum must reject the file as a miss.
    std::string file = store.path(key);
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(40);
        char c;
        f.seekg(40);
        f.get(c);
        f.seekp(40);
        f.put(char(c ^ 0x01));
    }
    EXPECT_EQ(store.load(key), nullptr);

    // Truncation too.
    ASSERT_TRUE(store.save(key, *trace));
    fs::resize_file(file, fs::file_size(file) / 2);
    EXPECT_EQ(store.load(key), nullptr);
}

} // namespace
} // namespace vmmx
