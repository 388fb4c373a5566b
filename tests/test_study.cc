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
#include <cstring>
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
    // A retired supervision key is an unknown key.
    EXPECT_FALSE(parseStudySpec("[exec]\nmax_respawns = 1\n", spec, err));
    EXPECT_NE(err.find("unknown [exec] key"), std::string::npos) << err;
    // A workload name is checked when the spec is parsed, not when its
    // first point runs.
    EXPECT_FALSE(parseStudySpec("[grid]\nkernels = nosuch\n", spec, err));
    EXPECT_NE(err.find("unknown kernel 'nosuch' (nearest: "),
              std::string::npos)
        << err;
    EXPECT_FALSE(parseStudySpec("[grid]\napps = nosuch\n", spec, err));
    EXPECT_NE(err.find("unknown app 'nosuch' (nearest: "), std::string::npos)
        << err;
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

    // Keys of removed execution paths fail like any other unknown key.
    for (const char *key : {"decoded", "decoded_budget", "batch",
                            "raw_budget"}) {
        EXPECT_FALSE(parseStudySpec(std::string("[exec]\n") + key + " = on\n",
                                    spec, err))
            << key;
        EXPECT_NE(err.find(std::string("line 2: unknown [exec] key '") + key +
                           "'"),
                  std::string::npos)
            << err;
    }
}

// An override key no knob table declares is a parse error naming the
// line and the nearest knob: a typo or a retired key would otherwise
// reproduce the baseline and read like a finding.
TEST_F(StudyTest, UnknownOverrideKeysAreParseErrors)
{
    StudySpec spec;
    std::string err;
    EXPECT_FALSE(parseStudySpec("[grid]\nkernels = idct\n"
                                "override = core.rob=32\n"
                                "override = mem.mshrs=4, core.robb=1\n",
                                spec, err));
    EXPECT_NE(err.find("line 4: unknown machine knob 'core.robb' "
                       "(nearest: core.rob)"),
              std::string::npos)
        << err;
    for (const char *bad : {"mem.l3.size=0", "core.robEntries=64"}) {
        EXPECT_FALSE(parseStudySpec(
            std::string("[grid]\noverride = ") + bad + "\n", spec, err))
            << bad;
        std::string key = std::string(bad).substr(0, std::string(bad).find('='));
        EXPECT_NE(err.find("line 2: unknown machine knob '" + key + "'"),
                  std::string::npos)
            << err;
    }
    EXPECT_FALSE(
        applySpecSetting("grid.override=core.robb=1", spec, err));
    EXPECT_NE(err.find("'grid.override=core.robb=1': unknown machine knob "
                       "'core.robb' (nearest: core.rob)"),
              std::string::npos)
        << err;

    // A Config built in code cannot carry a typo either, into a machine
    // or into spec text the parser would then reject.
    EXPECT_EXIT(makeMachine(SimdKind::MMX64, 2, Config({"core.robb=1"})),
                testing::ExitedWithCode(1),
                "unknown machine knob 'core\\.robb' \\(nearest: "
                "core\\.rob\\)");
    StudySpec coded;
    coded.overrideSets = {Config({"mem.l3.size=65536"})};
    EXPECT_EXIT(formatStudySpec(coded), testing::ExitedWithCode(1),
                "unknown machine knob 'mem\\.l3\\.size'");
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
    ASSERT_TRUE(applySpecSetting("exec.threads=4294967295", spec, err))
        << err;
    EXPECT_EQ(spec.exec.threads, 4294967295u);
    EXPECT_NE(formatStudySpec(spec).find("threads = 4294967295"),
              std::string::npos);

    // Rejected with the offending argument named: an unknown section,
    // an unknown key, a missing '=', and a value a spec line would not
    // accept either.
    for (const char *bad :
         {"bogus.threads=1", "exec.bogus=1", "grid.kinds=mmx96",
          "exec.threads", "exec.threads=-1", "grid.kernels=idct,nosuch",
          "exec.decoded=on", "threads=4"}) {
        EXPECT_FALSE(applySpecSetting(bad, spec, err)) << bad;
        EXPECT_NE(err.find(std::string("'") + bad + "'"), std::string::npos)
            << err;
    }
    for (const char *gone : {"exec.batch=off", "exec.raw_budget=64k"}) {
        EXPECT_FALSE(applySpecSetting(gone, spec, err)) << gone;
        EXPECT_NE(err.find(std::string("'") + gone + "'"), std::string::npos)
            << err;
        EXPECT_NE(err.find("unknown [exec] key"), std::string::npos) << err;
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

// Knob values are plain decimal and checked against their row's bounds
// before they reach a 32-bit field: none wraps, and none is read as
// octal or hex.
TEST_F(StudyTest, OverrideValuesAreDecimalAndBounded)
{
    struct Case
    {
        const char *assignment;
        const char *message;
    };
    for (const Case &c :
         {Case{"core.rob=4294967304", "core\\.rob wants a decimal number "
                                      "from 1 to 65536 \\(got "
                                      "'4294967304'\\)"},
          Case{"core.rob=4294967296", "core\\.rob wants a decimal number"},
          Case{"core.iq=4294967298", "core\\.iq wants a decimal number "
                                     "from 1 to 65536"},
          // One past the cap of each row that sizes a per-configuration
          // allocation: a clean fatal, not std::bad_alloc.
          Case{"core.rob=65537", "core\\.rob must be at most 65536"},
          Case{"core.iq=65537", "core\\.iq must be at most 65536"},
          Case{"core.bpred=65537", "core\\.bpred must be at most 65536"},
          Case{"core.simd_fus=65537",
               "core\\.simd_fus must be at most 65536"},
          Case{"core.simd_issue=65537",
               "core\\.simd_issue must be at most 65536"},
          Case{"core.phys_simd=65537",
               "core\\.phys_simd must be at most 65536"},
          Case{"core.store_window=65537",
               "core\\.store_window must be at most 65536"},
          Case{"mem.l1.size=1048577",
               "mem\\.l1\\.size must be at most 1048576"},
          // A cache allocates a tag per line: at most 2^20 lines.
          Case{"mem.l2.size=2147483648",
               "mem\\.l2\\.size / mem\\.l2\\.line must be at most "
               "1048576 lines \\(got 2147483648 / 128\\)"},
          Case{"mem.l2.size=2097152,mem.l2.line=1",
               "mem\\.l2\\.size / mem\\.l2\\.line must be at most "
               "1048576 lines"},
          Case{"mem.l1.banks=65537",
               "mem\\.l1\\.banks must be at most 65536"},
          Case{"mem.l1.ports=65537",
               "mem\\.l1\\.ports must be at most 65536"},
          Case{"mem.mshrs=65537", "mem\\.mshrs must be at most 65536"},
          Case{"mem.l1.line=4294967360", "mem\\.l1\\.line wants a decimal"},
          Case{"core.rob=010", "core\\.rob wants a decimal number"},
          Case{"core.rob=0x8", "core\\.rob wants a decimal number"},
          Case{"core.rob=+8", "core\\.rob wants a decimal number"},
          Case{"core.rob=-8", "core\\.rob wants a decimal number"},
          Case{"core.rob=", "core\\.rob wants a decimal number"},
          Case{"mem.vec.port_bytes=4",
               "mem\\.vec\\.port_bytes must be at least 8"}}) {
        StudySpec spec;
        spec.kernels = {"idct"};
        spec.kinds = {SimdKind::MMX64};
        spec.ways = {2};
        std::string err;
        ASSERT_TRUE(applySpecSetting(std::string("grid.override=") +
                                         c.assignment,
                                     spec, err))
            << err;
        EXPECT_EXIT(Study(spec).points(), testing::ExitedWithCode(1),
                    c.message)
            << c.assignment;
    }
}

// The largest caches the line cap admits build and run.
TEST_F(StudyTest, CachesOfTwoToTheTwentyLinesRun)
{
    for (const char *set : {"mem.l2.size=134217728",
                            "mem.l2.size=1048576,mem.l2.line=1"}) {
        StudySpec spec;
        spec.kernels = {"comp"};
        spec.kinds = {SimdKind::MMX64};
        spec.ways = {2};
        spec.exec.repo = &repo;
        spec.exec.backend = ExecutionPolicy::Backend::Serial;
        std::string err;
        ASSERT_TRUE(applySpecSetting(std::string("grid.override=") + set,
                                     spec, err))
            << err;
        auto results = Study(spec).run();
        ASSERT_EQ(results.size(), 1u) << set;
        EXPECT_GT(results[0].cycles(), 0u) << set;
    }
}

// exec.store and exec.journal are read by the processes backend alone;
// on the others they would be accepted and silently ignored.
TEST_F(StudyTest, StoreAndJournalNeedTheProcessesBackend)
{
    StudySpec spec;
    spec.kernels = {"motion1"};
    spec.kinds = {SimdKind::MMX64};
    spec.ways = {2};
    spec.exec.repo = &repo;
    for (const char *backend : {"serial", "threads"}) {
        for (const char *setting : {"exec.store=", "exec.journal="}) {
            StudySpec s = spec;
            std::string err;
            ASSERT_TRUE(applySpecSetting(std::string("exec.backend=") +
                                             backend,
                                         s, err));
            ASSERT_TRUE(applySpecSetting(setting + (dir_ / "x").string(), s,
                                         err));
            std::string key(setting, std::strlen(setting) - 1);
            EXPECT_EXIT(Study(s).run(), testing::ExitedWithCode(1),
                        key + " is read only by the processes backend, "
                              "not " + backend)
                << backend;
        }
    }
    EXPECT_FALSE(fs::exists(dir_ / "x"));
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
        Study study(spec);
        auto points = study.points();
        ASSERT_GE(points.size(), 8u);

        ExecutionPolicy policy = spec.exec;
        policy.backend = ExecutionPolicy::Backend::Serial;
        auto serial = runPoints(points, policy);
        policy.backend = ExecutionPolicy::Backend::ThreadPool;
        auto threads = runPoints(points, policy);
        // The Process backend runs this binary as its workers, with
        // private repositories sharing traces through the on-disk store.
        policy.backend = ExecutionPolicy::Backend::Process;
        policy.processes = 2;
        policy.storeDir = storeDir();
        policy.execPath = "/proc/self/exe";
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
        TraceRepository oracleRepo;
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
            if (backend == ExecutionPolicy::Backend::Process) {
                policy.storeDir =
                    storeDir() + "-" + std::to_string(ways.size());
                policy.execPath = "/proc/self/exe";
            }
            policy.distStats = &ds;
            policy.backend = backend;
            auto got = runPoints(points, policy);
            ASSERT_EQ(got.size(), expect.size());
            for (size_t i = 0; i < expect.size(); ++i)
                EXPECT_TRUE(got[i].sameRun(expect[i]))
                    << name(backend) << shape << " diverges at "
                    << expect[i].point.label();
            // Every keyed trace is streamed once -- in this process, or
            // in a worker -- and kept nowhere.
            u64 streams = backend == ExecutionPolicy::Backend::Process
                              ? ds.generations + ds.diskLoads
                              : fresh.generations() + fresh.diskLoads();
            EXPECT_EQ(streams, groupPointsByTrace(points).size())
                << name(backend) << shape;
            EXPECT_EQ(fresh.rawStats().bytes, 0u) << name(backend) << shape;
            EXPECT_EQ(fresh.decodedStats().fills, 0u)
                << name(backend) << shape;
        }
    }
}

/** The grid is one trace group, so one unit however many threads the
 *  pool has: the threads backend takes the serial schedule and must
 *  still return every point. */
TEST_F(StudyTest, StudyRunHonoursBackendChoice)
{
    StudySpec spec;
    spec.kernels = {"motion1"};
    spec.kinds = {SimdKind::VMMX64};
    spec.ways = {2, 4, 8};
    spec.exec.repo = &repo;
    ASSERT_EQ(groupPointsByTrace(Study(spec).points()).size(), 1u);

    spec.exec.backend = ExecutionPolicy::Backend::Serial;
    auto a = Study(spec).run();
    spec.exec.backend = ExecutionPolicy::Backend::ThreadPool;
    spec.exec.threads = 4;
    auto b = Study(spec).run();
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(b.size(), 3u);
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

        // The Figure 7 instruction mix, from the committed class counts.
        const RunStats &core = r.result.core;
        double baseInsts = double(base.result.core.instructions);
        using M = ReportSpec::Metric;
        const std::pair<M, InstClass> classMetrics[] = {
            {M::SmemOfBase, InstClass::SMEM},
            {M::SarithOfBase, InstClass::SARITH},
            {M::SctrlOfBase, InstClass::SCTRL},
            {M::VmemOfBase, InstClass::VMEM},
            {M::VarithOfBase, InstClass::VARITH},
        };
        double sum = 0;
        for (auto [m, cls] : classMetrics) {
            double v = metricValue(m, r, found);
            EXPECT_DOUBLE_EQ(v, 100.0 * double(core.classCount(cls)) /
                                    baseInsts)
                << name(m);
            sum += v;
            EXPECT_TRUE(std::isnan(metricValue(m, r, nullptr))) << name(m);
        }
        double insts = metricValue(M::InstsOfBase, r, found);
        EXPECT_DOUBLE_EQ(insts, 100.0 * double(core.instructions) / baseInsts);
        EXPECT_NEAR(sum, insts, 1e-9);
        EXPECT_TRUE(std::isnan(metricValue(M::InstsOfBase, r, nullptr)));
        EXPECT_DOUBLE_EQ(metricValue(M::VectorInstsPct, r, nullptr),
                         100.0 *
                             double(core.classCount(InstClass::VMEM) +
                                    core.classCount(InstClass::VARITH)) /
                             double(core.instructions));
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

// Every metric the report prints parses back from its spec spelling,
// and numMetrics counts them all: the value past the last has no name.
TEST(StudyMetrics, EveryMetricNameRoundTrips)
{
    for (unsigned i = 0; i < ReportSpec::numMetrics; ++i) {
        auto m = ReportSpec::Metric(i);
        ReportSpec::Metric parsed = ReportSpec::Metric::Cycles;
        EXPECT_TRUE(parseMetric(name(m), parsed)) << name(m);
        EXPECT_EQ(parsed, m) << name(m);
    }
    EXPECT_DEATH(name(ReportSpec::Metric(ReportSpec::numMetrics)),
                 "bad metric");
    ReportSpec::Metric m = ReportSpec::Metric::Cycles;
    EXPECT_FALSE(parseMetric("insts_of_bass", m));
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
