/**
 * @file
 * Study-API tests: the spec-file text format must round-trip exactly
 * (parse -> format -> parse is the identity), the three runPoints()
 * backends must produce bit-identical SweepResult vectors on a
 * randomized grid (the seam the future TCP backend plugs into) -- each
 * streaming its traces, keeping none of them, and matching the
 * materialize-then-replay oracle (runSweepPoint over the grid) -- and
 * the report's derived metrics must agree with hand-computed values
 * straight off the RunStats fields.  vmmx_study's --set assignments go
 * through the spec parser's own validation, and grid expansion rejects
 * overrides the model cannot run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"
#include "common/table.hh"
#include "dist/driver.hh"
#include "harness/harness_io.hh"
#include "harness/study.hh"

namespace fs = std::filesystem;

namespace vmmx
{
namespace
{

class StudyTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        setQuiet(true);
        dir_ = fs::temp_directory_path() /
               ("vmmx-study-test-" + std::to_string(::getpid()) + "-" +
                testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string storeDir() const { return (dir_ / "store").string(); }

    /** A private repository per test so in-process backends do not
     *  warm each other's process-wide tiers. */
    TraceRepository repo;
    fs::path dir_;
};

// ---- spec-file round-trip ------------------------------------------------

TEST_F(StudyTest, SpecFileRoundTrip)
{
    const std::string text = R"(# a hand-written spec
title = round-trip check

[grid]
kernels = idct, motion1
apps = gsmenc
kinds = mmx64,vmmx128
ways = 2,8
override = core.rob=32
override = core.rob=64,mem.mshrs=4

[exec]
backend = serial
threads = 3
processes = 5
store = /tmp/some-store
journal = /tmp/some.vmjl
max_respawns = 5
unit_timeout_ms = 2500
max_unit_attempts = 4

[report]
layout = pivot
metrics = cycles,ipc,speedup
pivot_metric = ipc
baseline = mmx128/4
geomean = on
precision = 3
)";

    StudySpec spec;
    std::string err;
    ASSERT_TRUE(parseStudySpec(text, spec, err)) << err;

    // Spot checks against the hand-written text.
    EXPECT_EQ(spec.title, "round-trip check");
    EXPECT_EQ(spec.kernels, (std::vector<std::string>{"idct", "motion1"}));
    EXPECT_EQ(spec.apps, (std::vector<std::string>{"gsmenc"}));
    EXPECT_EQ(spec.kinds,
              (std::vector<SimdKind>{SimdKind::MMX64, SimdKind::VMMX128}));
    EXPECT_EQ(spec.ways, (std::vector<unsigned>{2, 8}));
    ASSERT_EQ(spec.overrideSets.size(), 2u);
    EXPECT_EQ(spec.overrideSets[0].getString("core.rob"), "32");
    EXPECT_EQ(spec.overrideSets[1].getString("mem.mshrs"), "4");
    EXPECT_EQ(spec.exec.backend, ExecutionPolicy::Backend::Serial);
    EXPECT_EQ(spec.exec.threads, 3u);
    EXPECT_EQ(spec.exec.processes, 5u);
    EXPECT_EQ(spec.exec.storeDir, "/tmp/some-store");
    EXPECT_EQ(spec.exec.journalPath, "/tmp/some.vmjl");
    EXPECT_EQ(spec.exec.maxRespawns, 5u);
    EXPECT_EQ(spec.exec.unitTimeoutMs, 2500u);
    EXPECT_EQ(spec.exec.maxUnitAttempts, 4u);
    EXPECT_EQ(spec.report.layout, ReportSpec::Layout::Pivot);
    EXPECT_EQ(spec.report.pivot, ReportSpec::Metric::Ipc);
    EXPECT_EQ(spec.report.baselineKind, SimdKind::MMX128);
    EXPECT_EQ(spec.report.baselineWay, 4u);
    EXPECT_TRUE(spec.report.geomean);
    EXPECT_EQ(spec.report.precision, 3);

    // parse -> format -> parse is the identity on the spec...
    std::string canonical = formatStudySpec(spec);
    StudySpec again;
    ASSERT_TRUE(parseStudySpec(canonical, again, err)) << err;
    EXPECT_TRUE(spec == again);
    // ...and format is idempotent on the canonical text.
    EXPECT_EQ(canonical, formatStudySpec(again));
}

TEST_F(StudyTest, SpecFileDefaultsAndFromFile)
{
    // A minimal spec: everything else keeps its defaults.
    fs::path path = dir_ / "mini.study";
    {
        std::ofstream out(path);
        out << "title = mini\n[grid]\nkernels = idct\n";
    }
    Study study = Study::fromFile(path.string());
    const StudySpec &spec = study.spec();
    EXPECT_EQ(spec.title, "mini");
    EXPECT_EQ(spec.kernels, (std::vector<std::string>{"idct"}));
    EXPECT_TRUE(spec.apps.empty());
    EXPECT_EQ(spec.kinds.size(), 4u); // all four flavours by default
    EXPECT_EQ(spec.ways, (std::vector<unsigned>{2, 4, 8}));
    EXPECT_TRUE(spec.overrideSets.empty());
    EXPECT_EQ(spec.report.layout, ReportSpec::Layout::Points);
    // Supervision knobs keep their built-in defaults when unspecified.
    EXPECT_EQ(spec.exec.maxRespawns, 3u);
    EXPECT_EQ(spec.exec.unitTimeoutMs, 0u);
    EXPECT_EQ(spec.exec.maxUnitAttempts, 3u);

    // The facade's specText round-trips too.
    Study again = Study::fromSpecText(study.specText());
    EXPECT_TRUE(study.spec() == again.spec());
}

TEST_F(StudyTest, SpecFileParseErrors)
{
    StudySpec spec;
    std::string err;

    EXPECT_FALSE(parseStudySpec("[nonsense]\n", spec, err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    EXPECT_NE(err.find("nonsense"), std::string::npos);

    EXPECT_FALSE(parseStudySpec("title = x\n[grid]\nbogus = 1\n",
                                spec, err));
    EXPECT_NE(err.find("line 3"), std::string::npos);

    EXPECT_FALSE(parseStudySpec("[grid]\nkinds = mmx96\n", spec, err));
    EXPECT_NE(err.find("mmx96"), std::string::npos);

    EXPECT_FALSE(parseStudySpec("[grid]\nways = 2,zero\n", spec, err));
    // strtoul would happily wrap these; the parser must not.
    EXPECT_FALSE(parseStudySpec("[grid]\nways = -1\n", spec, err));
    EXPECT_FALSE(parseStudySpec("[exec]\nthreads = -1\n", spec, err));
    EXPECT_FALSE(parseStudySpec("[report]\nbaseline = mmx64/-2\n",
                                spec, err));
    EXPECT_FALSE(parseStudySpec("[exec]\nbackend = cloud\n", spec, err));
    EXPECT_FALSE(parseStudySpec("[exec]\nmax_respawns = some\n", spec, err));
    EXPECT_FALSE(parseStudySpec("[exec]\nunit_timeout_ms = -5\n",
                                spec, err));
    // Zero attempts would mean "quarantine everything on sight".
    EXPECT_FALSE(parseStudySpec("[exec]\nmax_unit_attempts = 0\n",
                                spec, err));
    EXPECT_NE(err.find("max_unit_attempts"), std::string::npos);
    EXPECT_FALSE(parseStudySpec("[report]\nmetrics = cycles,joules\n",
                                spec, err));
    EXPECT_FALSE(parseStudySpec("[report]\nbaseline = mmx64\n", spec, err));
    // No machine has a 3-way core: the baseline would match no point.
    EXPECT_FALSE(parseStudySpec("[report]\nbaseline = mmx64/3\n", spec, err));
    EXPECT_NE(err.find("want 2, 4 or 8"), std::string::npos) << err;
    // An empty axis is a spec error, not an "empty grid" at run time.
    EXPECT_FALSE(parseStudySpec("[grid]\nkinds =\n", spec, err));
    EXPECT_NE(err.find("'kinds'"), std::string::npos) << err;
    EXPECT_FALSE(parseStudySpec("[grid]\nways = ,\n", spec, err));
    EXPECT_NE(err.find("'ways'"), std::string::npos) << err;
    EXPECT_FALSE(parseStudySpec("no equals sign here\n", spec, err));
    // A CR inside a value would load but could not be formatted back;
    // at a line's end it is the CRLF line ending and stays accepted.
    EXPECT_FALSE(parseStudySpec("title = speed\rup\n", spec, err));
    EXPECT_NE(err.find("line 1: 'title' holds a carriage return"),
              std::string::npos)
        << err;
    EXPECT_FALSE(parseStudySpec("[grid]\napps = jpe\rgenc\n", spec, err));
    EXPECT_NE(err.find("line 2: 'apps' holds a carriage return"),
              std::string::npos)
        << err;
    EXPECT_TRUE(parseStudySpec("title = crlf\r\n[grid]\r\napps = jpegenc\r\n",
                               spec, err))
        << err;
    EXPECT_FALSE(applySpecSetting("title=a\rb", spec, err));
    EXPECT_NE(err.find("carriage return"), std::string::npos) << err;
    // A double has 17 significant digits: more places only pad a cell
    // past the table's cell buffer, and a count past INT_MAX would wrap
    // negative in the int the report keeps.
    EXPECT_TRUE(parseStudySpec("[report]\nprecision = 17\n", spec, err))
        << err;
    for (const char *text : {"[report]\nprecision = 18\n",
                             "[report]\nprecision = 3000000000\n"}) {
        EXPECT_FALSE(parseStudySpec(text, spec, err)) << text;
        EXPECT_NE(err.find("0 to 17"), std::string::npos) << err;
    }

    // The decoded tier's knobs are gone; a spec still setting them is
    // told why instead of being silently accepted.
    for (const char *text : {"[exec]\ndecoded = on\n",
                             "[exec]\ndecoded_budget = 2M\n"}) {
        EXPECT_FALSE(parseStudySpec(text, spec, err)) << text;
        EXPECT_NE(err.find("stream traces"), std::string::npos) << err;
    }
    // So are the per-point schedule and the raw-tier budget: the
    // executors always run whole trace groups.
    for (const char *text : {"[exec]\nbatch = off\n", "[exec]\nbatch = on\n",
                             "[exec]\nraw_budget = 64k\n"}) {
        EXPECT_FALSE(parseStudySpec(text, spec, err)) << text;
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
        EXPECT_NE(err.find("always run whole trace groups"),
                  std::string::npos)
            << err;
    }
}

TEST_F(StudyTest, SetAssignmentsLayerOverTheSpec)
{
    StudySpec spec;
    std::string err;
    ASSERT_TRUE(parseStudySpec("[grid]\nkernels = idct\n"
                               "override = core.rob=32\n"
                               "[exec]\nthreads = 2\n",
                               spec, err))
        << err;

    // Scalar keys: the last assignment wins, spaces are trimmed like a
    // spec line's.
    ASSERT_TRUE(applySpecSetting("exec.threads=3", spec, err)) << err;
    ASSERT_TRUE(applySpecSetting(" exec.threads = 5 ", spec, err)) << err;
    EXPECT_EQ(spec.exec.threads, 5u);
    ASSERT_TRUE(applySpecSetting("grid.kernels=motion1,comp", spec, err));
    EXPECT_EQ(spec.kernels, (std::vector<std::string>{"motion1", "comp"}));
    ASSERT_TRUE(applySpecSetting("exec.backend=processes", spec, err));
    EXPECT_EQ(spec.exec.backend, ExecutionPolicy::Backend::Process);
    ASSERT_TRUE(applySpecSetting("title=from the command line", spec, err));
    EXPECT_EQ(spec.title, "from the command line");

    // grid.override appends a set to the file's.
    ASSERT_TRUE(
        applySpecSetting("grid.override=core.rob=64,mem.mshrs=4", spec, err))
        << err;
    ASSERT_EQ(spec.overrideSets.size(), 2u);
    EXPECT_EQ(spec.overrideSets[0].getString("core.rob"), "32");
    EXPECT_EQ(spec.overrideSets[1].getString("core.rob"), "64");
    EXPECT_EQ(spec.overrideSets[1].getString("mem.mshrs"), "4");

    // Values past INT_MAX reach the policy unchanged.
    ASSERT_TRUE(
        applySpecSetting("exec.unit_timeout_ms=3000000000", spec, err))
        << err;
    ASSERT_TRUE(applySpecSetting("exec.threads=4294967295", spec, err))
        << err;
    EXPECT_EQ(spec.exec.unitTimeoutMs, 3000000000u);
    EXPECT_EQ(spec.exec.threads, 4294967295u);
    EXPECT_NE(formatStudySpec(spec).find("unit_timeout_ms = 3000000000"),
              std::string::npos);

    // Rejected with the offending argument named: an unknown section,
    // an unknown key, a missing '=', and a value a spec line would not
    // accept either.
    for (const char *bad :
         {"bogus.threads=1", "exec.bogus=1", "grid.kinds=mmx96",
          "exec.threads", "exec.threads=-1", "exec.max_unit_attempts=0",
          "exec.decoded=on", "threads=4"}) {
        EXPECT_FALSE(applySpecSetting(bad, spec, err)) << bad;
        EXPECT_NE(err.find(std::string("'") + bad + "'"), std::string::npos)
            << err;
    }
    for (const char *gone : {"exec.batch=off", "exec.raw_budget=64k"}) {
        EXPECT_FALSE(applySpecSetting(gone, spec, err)) << gone;
        EXPECT_NE(err.find(std::string("'") + gone + "'"), std::string::npos)
            << err;
        EXPECT_NE(err.find("always run whole trace groups"),
                  std::string::npos)
            << err;
    }
    EXPECT_FALSE(applySpecSetting("bogus.threads=1", spec, err));
    EXPECT_NE(err.find("unknown section [bogus]"), std::string::npos) << err;
    EXPECT_FALSE(applySpecSetting("exec.bogus=1", spec, err));
    EXPECT_NE(err.find("unknown [exec] key 'bogus'"), std::string::npos)
        << err;
}

// ---- grid expansion ------------------------------------------------------

TEST_F(StudyTest, GridExpansionOrderAndOverrideSets)
{
    StudySpec spec;
    spec.kernels = {"idct"};
    spec.apps = {"gsmenc"};
    spec.kinds = {SimdKind::MMX64, SimdKind::VMMX128};
    spec.ways = {2, 4};
    Config robA, robB;
    robA.set("core.rob", s64(32));
    robB.set("core.rob", s64(64));
    spec.overrideSets = {robA, robB};

    auto points = Study(spec).points();
    // 2 workloads x 2 kinds x 2 ways x 2 sets.
    ASSERT_EQ(points.size(), 16u);
    // Workload-major, then kind, then way, then override set -- so all
    // points of one (workload, kind) trace are contiguous.
    EXPECT_EQ(points[0].label(), "idct/mmx64/2-way+core.rob=32");
    EXPECT_EQ(points[1].label(), "idct/mmx64/2-way+core.rob=64");
    EXPECT_EQ(points[2].label(), "idct/mmx64/4-way+core.rob=32");
    EXPECT_EQ(points[4].label(), "idct/vmmx128/2-way+core.rob=32");
    EXPECT_EQ(points[8].label(), "gsmenc/mmx64/2-way+core.rob=32");
    EXPECT_EQ(points[8].workload, SweepPoint::Workload::App);
    EXPECT_EQ(points[0].workload, SweepPoint::Workload::Kernel);

    // One batched unit per (workload, kind): 4 groups of 4.
    auto groups = groupPointsByTrace(points);
    ASSERT_EQ(groups.size(), 4u);
    for (const auto &g : groups)
        EXPECT_EQ(g.size(), 4u);
}

// Grid expansion builds every machine once, so an override the model
// cannot run stops the study up front with its key named, before any
// unit reaches a worker.
TEST_F(StudyTest, DegenerateOverridesFailAtGridExpansion)
{
    for (std::string bad : {"core.iq=0", "core.rob=0", "mem.mshrs=0",
                            "mem.l2.assoc=0"}) {
        StudySpec spec;
        spec.kernels = {"idct"};
        spec.kinds = {SimdKind::VMMX128};
        spec.ways = {8};
        std::string err;
        ASSERT_TRUE(applySpecSetting("grid.override=" + bad, spec, err))
            << err;
        std::string key = bad.substr(0, bad.find('='));
        EXPECT_EXIT(Study(spec).points(), testing::ExitedWithCode(1),
                    key + " must be at least 1")
            << bad;
    }
}

// ---- backend equivalence -------------------------------------------------

/** A randomized grid over the short-trace kernels: random flavours,
 *  widths, and ablation overrides. */
StudySpec
randomizedSpec(std::mt19937 &rng)
{
    StudySpec spec;
    spec.kernels = {"motion1", "comp"};
    if (rng() % 2)
        spec.kernels.push_back("addblock");
    spec.kinds = {SimdKind::MMX64, SimdKind::VMMX128};
    if (rng() % 2)
        spec.kinds.push_back(SimdKind::MMX128);
    spec.ways = {2, 4};
    auto pick = [&](std::initializer_list<s64> choices) {
        std::vector<s64> v(choices);
        return v[rng() % v.size()];
    };
    for (int set = 0; set < int(rng() % 3); ++set) {
        Config knobs;
        knobs.set("core.rob", pick({16, 32, 64}));
        if (rng() % 2)
            knobs.set("mem.mshrs", pick({2, 8}));
        spec.overrideSets.push_back(knobs);
    }
    return spec;
}

TEST_F(StudyTest, BackendsBitIdenticalOnRandomizedGrid)
{
    std::mt19937 rng(0xf00d);
    for (int round = 0; round < 2; ++round) {
        StudySpec spec = randomizedSpec(rng);
        spec.exec.repo = &repo;
        spec.exec.threads = 4;
        spec.exec.storeDir = storeDir();
        Study study(spec);
        auto points = study.points();
        ASSERT_GE(points.size(), 8u);

        ExecutionPolicy policy = spec.exec;
        policy.backend = ExecutionPolicy::Backend::Serial;
        auto serial = runPoints(points, policy);
        policy.backend = ExecutionPolicy::Backend::ThreadPool;
        auto threads = runPoints(points, policy);
        // The Process backend forks workers with private repositories
        // sharing traces through the on-disk store.
        policy.backend = ExecutionPolicy::Backend::Process;
        policy.processes = 2;
        auto processes = runPoints(points, policy);

        ASSERT_EQ(serial.size(), points.size());
        ASSERT_EQ(threads.size(), points.size());
        ASSERT_EQ(processes.size(), points.size());
        for (size_t i = 0; i < points.size(); ++i) {
            EXPECT_TRUE(serial[i].sameRun(threads[i]))
                << "threads diverge at " << serial[i].point.label();
            EXPECT_TRUE(serial[i].sameRun(processes[i]))
                << "processes diverge at " << serial[i].point.label();
            EXPECT_EQ(serial[i].point.label(), threads[i].point.label());
            EXPECT_EQ(serial[i].point.label(), processes[i].point.label());
        }
    }
}

// The streaming contract: every backend streams the traces of its
// trace groups (generated ahead on a producer thread for the serial
// backend, read from or written through to the store for workers), keeps
// none of them, and must match the materialize-then-replay oracle point
// for point -- with several points per trace (ways 2,4) and with one
// (ways 8, where every group is a group of one).
TEST_F(StudyTest, StreamedBackendsMatchRunSerialOnRandomizedGrids)
{
    std::mt19937 rng(0x57ea);
    for (const std::vector<unsigned> &ways :
         {std::vector<unsigned>{2, 4}, std::vector<unsigned>{8}}) {
        StudySpec spec = randomizedSpec(rng);
        spec.ways = ways;
        if (ways.size() == 1 && spec.overrideSets.size() > 1)
            spec.overrideSets.resize(1); // one point per trace
        Study study(spec);
        std::vector<SweepPoint> points = study.points();
        const std::string shape =
            ways.size() == 1 ? " (one point per trace)" : " (groups)";
        if (ways.size() == 1) {
            ASSERT_EQ(groupPointsByTrace(points).size(), points.size());
        }

        // The oracle resolves every trace whole, in its own repository.
        TraceRepository oracleRepo(nullptr, 0, 0);
        ExecutionPolicy oracle;
        oracle.repo = &oracleRepo;
        std::vector<SweepResult> expect;
        for (const SweepPoint &p : points)
            expect.push_back(runSweepPoint(p, oracle));

        for (auto backend : {ExecutionPolicy::Backend::Serial,
                             ExecutionPolicy::Backend::ThreadPool,
                             ExecutionPolicy::Backend::Process}) {
            TraceRepository fresh;
            dist::DistStats ds;
            ExecutionPolicy policy;
            policy.repo = &fresh;
            policy.threads = 3;
            policy.processes = 2;
            policy.storeDir = storeDir() + "-" + std::to_string(ways.size());
            policy.distStats = &ds;
            policy.backend = backend;
            auto got = runPoints(points, policy);
            ASSERT_EQ(got.size(), expect.size());
            for (size_t i = 0; i < expect.size(); ++i)
                EXPECT_TRUE(got[i].sameRun(expect[i]))
                    << name(backend) << shape << " diverges at "
                    << expect[i].point.label();
            // Every keyed trace is streamed once and kept nowhere: not
            // in this process, and not in any worker.
            EXPECT_EQ(fresh.rawStats().bytes, 0u) << name(backend) << shape;
            EXPECT_EQ(fresh.decodes(), 0u) << name(backend) << shape;
            if (backend == ExecutionPolicy::Backend::Process) {
                EXPECT_EQ(ds.bytesResident, 0u) << shape;
                EXPECT_EQ(ds.hits, 0u) << shape;
            }
        }
    }
}

TEST_F(StudyTest, StudyRunHonoursBackendChoice)
{
    StudySpec spec;
    spec.kernels = {"motion1"};
    spec.kinds = {SimdKind::VMMX64};
    spec.ways = {2, 4};
    spec.exec.repo = &repo;

    spec.exec.backend = ExecutionPolicy::Backend::Serial;
    auto a = Study(spec).run();
    spec.exec.backend = ExecutionPolicy::Backend::ThreadPool;
    spec.exec.threads = 2;
    auto b = Study(spec).run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a[i].sameRun(b[i]));
}

// ---- derived metrics -----------------------------------------------------

TEST_F(StudyTest, DerivedMetricsMatchHandComputedValues)
{
    StudySpec spec;
    spec.kernels = {"idct"};
    spec.kinds = {SimdKind::MMX64, SimdKind::VMMX128};
    spec.ways = {2, 4};
    spec.exec.repo = &repo;
    spec.exec.backend = ExecutionPolicy::Backend::Serial;
    Study study(spec);
    auto results = study.run();
    ASSERT_EQ(results.size(), 4u);

    // The baseline of every point is the 2-way mmx64 run (results[0]).
    const SweepResult &base = results[0];
    for (const auto &r : results) {
        const SweepResult *found =
            Study::baselineFor(spec.report, results, r);
        ASSERT_NE(found, nullptr);
        EXPECT_TRUE(found->sameRun(base));

        double speedup =
            metricValue(ReportSpec::Metric::Speedup, r, found);
        EXPECT_DOUBLE_EQ(speedup,
                         double(base.cycles()) / double(r.cycles()));
        EXPECT_DOUBLE_EQ(metricValue(ReportSpec::Metric::Cycles, r, found),
                         double(r.cycles()));
        EXPECT_DOUBLE_EQ(
            metricValue(ReportSpec::Metric::Ipc, r, found),
            double(r.result.core.instructions) / double(r.cycles()));

        double sc = double(r.result.core.scalarCycles);
        double vc = double(r.result.core.vectorCycles);
        double baseTotal = double(base.result.core.scalarCycles) +
                           double(base.result.core.vectorCycles);
        EXPECT_DOUBLE_EQ(
            metricValue(ReportSpec::Metric::VectorPct, r, found),
            100.0 * vc / (sc + vc));
        EXPECT_DOUBLE_EQ(
            metricValue(ReportSpec::Metric::TotalOfBase, r, found),
            100.0 * (sc + vc) / baseTotal);
        EXPECT_DOUBLE_EQ(
            metricValue(ReportSpec::Metric::ScalarOfBase, r, found),
            100.0 * sc / baseTotal);
    }

    // The baseline's own speedup is exactly 1; speedup without a
    // baseline renders as "-".
    EXPECT_DOUBLE_EQ(metricValue(ReportSpec::Metric::Speedup, base, &base),
                     1.0);
    EXPECT_TRUE(std::isnan(
        metricValue(ReportSpec::Metric::Speedup, base, nullptr)));

    // The rendered pivot table carries the same numbers: the vmmx128
    // 4-way cell is the hand-computed speedup to 2 decimals.
    spec.report.layout = ReportSpec::Layout::Pivot;
    Study pivot(spec);
    std::ostringstream os;
    pivot.writeReport(os, results);
    double sp = double(base.cycles()) / double(results[3].cycles());
    EXPECT_NE(os.str().find(TextTable::num(sp)), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("idct:"), std::string::npos);
}

TEST_F(StudyTest, BaselinePrefersMatchingOverrideSet)
{
    // With per-set baselines available, a point's speedup compares
    // against its own override set, not the unmodified machine.
    StudySpec spec;
    spec.kernels = {"comp"};
    spec.kinds = {SimdKind::MMX64};
    spec.ways = {2, 4};
    Config small;
    small.set("core.rob", s64(16));
    spec.overrideSets = {Config(), small};
    spec.exec.repo = &repo;
    spec.exec.backend = ExecutionPolicy::Backend::Serial;

    Study study(spec);
    auto results = study.run();
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results) {
        const SweepResult *base =
            Study::baselineFor(spec.report, results, r);
        ASSERT_NE(base, nullptr) << r.point.label();
        EXPECT_TRUE(base->point.overrides == r.point.overrides)
            << r.point.label();
        EXPECT_EQ(base->point.way, 2u);
    }
}

} // namespace
} // namespace vmmx
