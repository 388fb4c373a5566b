/**
 * @file
 * Unit tests for the common substrate: Config, MemImage (its
 * lazily committed arena and bounds), saturating helpers, the RNG, and
 * the cost model.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/config.hh"
#include "common/env.hh"
#include "common/memimage.hh"
#include "common/rng.hh"
#include "common/saturate.hh"
#include "common/table.hh"
#include "cost/rf_model.hh"

namespace vmmx
{
namespace
{

// Config stores override strings; the knob tables parse them.
TEST(Config, StoresAssignmentsAsStrings)
{
    Config c({"b=010", "a=x=y", "c="});
    EXPECT_EQ(c.keys(), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(c.getString("a"), "x=y"); // split at the first '='
    EXPECT_EQ(c.getString("b"), "010"); // kept verbatim, not parsed
    EXPECT_EQ(c.getString("c"), "");
    EXPECT_FALSE(c.has("missing"));

    Config d;
    d.set("c", std::string());
    d.set("b", s64(10));
    EXPECT_FALSE(c == d);
    d.set("b", std::string("010")); // the last assignment wins
    d.set("a", "x=y");
    EXPECT_TRUE(c == d);

    EXPECT_EXIT(Config({"novalue"}), testing::ExitedWithCode(1),
                "malformed config assignment 'novalue'");
    EXPECT_EXIT(Config({"=5"}), testing::ExitedWithCode(1),
                "malformed config assignment");
    EXPECT_EXIT(c.getString("missing"), testing::ExitedWithCode(1),
                "missing required config key 'missing'");
}

TEST(MemImage, ReadWriteRoundTrip)
{
    MemImage mem(4096);
    Addr a = mem.alloc(64, 16);
    EXPECT_EQ(a % 16, 0u);
    mem.write64(a, 0x1122334455667788ull);
    EXPECT_EQ(mem.read64(a), 0x1122334455667788ull);
    EXPECT_EQ(mem.read8(a), 0x88); // little-endian
    EXPECT_EQ(mem.read16(a + 6), 0x1122);
    mem.write16(a + 2, 0xbeef);
    EXPECT_EQ(mem.read32(a), 0xbeef7788u);
}

TEST(MemImage, AllocationsDontOverlap)
{
    MemImage mem(1 << 16);
    Addr a = mem.alloc(100);
    Addr b = mem.alloc(100);
    EXPECT_GE(b, a + 100);
}

/** Resident set of this process in bytes (/proc/self/statm). */
size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t pages = 0;
    size_t resident = 0;
    statm >> pages >> resident;
    EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
    return resident * size_t(::sysconf(_SC_PAGESIZE));
}

// The arena is a reservation: only the pages a workload writes become
// resident.  16 MiB of slack covers the three touched pages even when
// each is backed by a 2 MiB transparent huge page; committing the
// whole 256 MiB up front would blow through it.
TEST(MemImage, CommitsOnlyTouchedPages)
{
    size_t before = residentBytes();
    MemImage mem(256u << 20);
    ASSERT_EQ(mem.size(), 256u << 20);
    const Addr spots[] = {64, mem.size() / 2, mem.size() - 8};
    for (Addr a : spots)
        mem.write64(a, 0x5a5a0000u + a);
    for (Addr a : spots)
        EXPECT_EQ(mem.read64(a), 0x5a5a0000u + a);
    EXPECT_EQ(mem.read8(mem.size() / 4), 0u);
    EXPECT_EQ(mem.read64(mem.size() - 16), 0u);
    size_t after = residentBytes();
    EXPECT_LT(after, before + (size_t(16) << 20));
}

TEST(MemImage, MoveKeepsBytesAndSize)
{
    static_assert(!std::is_copy_constructible_v<MemImage>);
    static_assert(!std::is_copy_assignable_v<MemImage>);
    MemImage a(1 << 16);
    Addr p = a.alloc(8);
    a.write64(p, 0x0123456789abcdefull);

    MemImage b(std::move(a));
    EXPECT_EQ(b.size(), 1u << 16);
    EXPECT_EQ(b.brk(), p + 8);
    EXPECT_EQ(b.read64(p), 0x0123456789abcdefull);

    MemImage c(4096);
    c = std::move(b);
    EXPECT_EQ(c.size(), 1u << 16);
    EXPECT_EQ(c.read64(p), 0x0123456789abcdefull);
    EXPECT_EQ(c.read64(p + 8), 0u);
}

TEST(MemImage, OutOfArenaAccessPanics)
{
    MemImage mem(4096);
    EXPECT_DEATH(mem.read8(4096), "out of arena of 4096 bytes");
    EXPECT_DEATH(mem.write32(4094, 1), "out of arena");
    EXPECT_DEATH(mem.raw(~Addr(0) - 3, 8), "out of arena");
}

// A request whose end wraps past 2^64 must be refused: with brk at 64,
// base + bytes for alloc(SIZE_MAX - 7) wraps to 56, which passes a
// `base + bytes > size` test and leaves brk behind base, so the next
// allocation would alias this one.
TEST(MemImage, AllocRejectsRequestsPastTheArena)
{
    MemImage mem(1 << 16);
    EXPECT_EXIT(mem.alloc(SIZE_MAX - 7), testing::ExitedWithCode(1),
                "arena exhausted");
    EXPECT_EXIT(mem.alloc((1 << 16) - 63), testing::ExitedWithCode(1),
                "arena exhausted");
    EXPECT_EXIT(mem.alloc(1, size_t(1) << 17), testing::ExitedWithCode(1),
                "arena exhausted");
    EXPECT_EQ(mem.alloc((1 << 16) - 64), 64u); // exactly the room left
    EXPECT_EQ(mem.brk(), 1u << 16);
}

TEST(Saturate, Helpers)
{
    EXPECT_EQ(satAddU8(200, 100), 255);
    EXPECT_EQ(satSubU8(10, 20), 0);
    EXPECT_EQ(satAddS16(30000, 10000), 32767);
    EXPECT_EQ(satSubS16(-30000, 10000), -32768);
    EXPECT_EQ(absDiffU8(3, 250), 247);
    EXPECT_EQ(avgU8(1, 2), 2); // rounds up
    EXPECT_EQ(asr(-7, 1), -4); // arithmetic, floors
    EXPECT_EQ(asr64(-1, 20), -1);
}

TEST(Rng, DeterministicAndRanged)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        s64 v = r.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Table, AlignsColumns)
{
    TextTable t({"a", "long_header"});
    t.addRow({"xxxxx", "1"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("long_header"), std::string::npos);
    EXPECT_NE(os.str().find("xxxxx"), std::string::npos);
}

// Table I: every column of the model for the eight (width, flavour)
// rows.  Storage is decimal KB, as the paper uses; area is normalised to
// the 4-way MMX64 design.  The paper's printed KB and area follow each
// row: its 4-way VMMX128 KB reads 9.12, but 36 x 16 x 128 bits is 9.216
// decimal KB, so 9.21 is listed.  Key claim: the 8-way VMMX128 file
// costs less area than the 8-way MMX128 one despite ~10x the storage,
// thanks to lane-partitioned banking (AreaTrendsMatchPaper).
TEST(RfModel, StorageMatchesTable1)
{
    struct Row
    {
        unsigned way;
        SimdKind kind;
        unsigned logRegs, physRegs, lanes, banksPerLane, reads, writes;
        double storageKB, area;
    };
    using K = SimdKind;
    const Row rows[] = {
        // way, kind, log, phys, lanes, banks/lane, R, W, KB, area
        // (the paper's KB and area in the comment)
        {4, K::MMX64, 32, 64, 1, 1, 10, 6, 0.512, 1.0},          // 0.5   1.00
        {4, K::MMX128, 32, 64, 1, 1, 10, 6, 1.024, 2.0},         // 1.0   2.00
        {4, K::VMMX64, 16, 36, 4, 2, 4, 2, 4.608, 1.265625},     // 4.6   1.41
        {4, K::VMMX128, 16, 36, 4, 2, 4, 2, 9.216, 2.53125},     // 9.21  2.63
        {8, K::MMX64, 32, 96, 1, 1, 20, 12, 0.768, 6.0},         // 0.77  5.14
        {8, K::MMX128, 32, 96, 1, 1, 20, 12, 1.536, 12.0},       // 1.54 10.29
        {8, K::VMMX64, 16, 64, 4, 4, 4, 2, 8.192, 2.25},         // 8.19  2.10
        {8, K::VMMX128, 16, 64, 4, 4, 4, 2, 16.384, 4.5},        // 16.3  4.20
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(std::to_string(r.way) + "-way " + name(r.kind));
        RfDesign d = RfDesign::forMachine(r.kind, r.way);
        EXPECT_EQ(geometry(r.kind).logicalRegs, r.logRegs);
        EXPECT_EQ(d.physRegs, r.physRegs);
        EXPECT_EQ(d.lanes, r.lanes);
        EXPECT_EQ(d.banksPerLane, r.banksPerLane);
        EXPECT_EQ(d.readPortsPerBank, r.reads);
        EXPECT_EQ(d.writePortsPerBank, r.writes);
        EXPECT_NEAR(d.storageKB(), r.storageKB, 1e-9);
        EXPECT_NEAR(normalizedArea(d), r.area, 1e-9);
    }
}

TEST(RfModel, AreaTrendsMatchPaper)
{
    auto area = [](SimdKind k, unsigned w) {
        return normalizedArea(RfDesign::forMachine(k, w));
    };
    // Doubling the width doubles a centralized file's area.
    EXPECT_NEAR(area(SimdKind::MMX128, 4), 2 * area(SimdKind::MMX64, 4),
                1e-9);
    // The banked matrix file scales far more gently than the
    // centralized one: 8-way VMMX128 must undercut 8-way MMX128.
    EXPECT_LT(area(SimdKind::VMMX128, 8), area(SimdKind::MMX128, 8));
    // And the port explosion dominates the 8-way MMX designs.
    EXPECT_GT(area(SimdKind::MMX64, 8), 4 * area(SimdKind::MMX64, 4));
}

TEST(RfModel, MatrixStorageExceedsMmx)
{
    for (unsigned way : {4u, 8u}) {
        EXPECT_GT(RfDesign::forMachine(SimdKind::VMMX64, way).storageKB(),
                  RfDesign::forMachine(SimdKind::MMX128, way).storageKB());
    }
}

// ---- the one environment parser (common/env.hh) --------------------------

TEST(Env, ParseFlagAcceptsTheDocumentedSpellings)
{
    bool v = false;
    for (const char *t : {"1", "on", "true", "yes"}) {
        v = false;
        EXPECT_TRUE(env::parseFlag(t, v)) << t;
        EXPECT_TRUE(v) << t;
    }
    for (const char *t : {"0", "off", "false", "no"}) {
        v = true;
        EXPECT_TRUE(env::parseFlag(t, v)) << t;
        EXPECT_FALSE(v) << t;
    }
}

TEST(Env, ParseFlagRejectsGarbage)
{
    bool v = true;
    for (const char *t : {"", "maybe", "ON", "2", "-1", "on "}) {
        EXPECT_FALSE(env::parseFlag(t, v)) << "'" << t << "'";
        EXPECT_TRUE(v) << t; // untouched on failure
    }
    EXPECT_FALSE(env::parseFlag(nullptr, v));
}

TEST(Env, ParseUnsignedRejectsNegativesOverflowAndGarbage)
{
    unsigned v = 7;
    EXPECT_TRUE(env::parseUnsigned("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(env::parseUnsigned("4096", v));
    EXPECT_EQ(v, 4096u);
    EXPECT_TRUE(env::parseUnsigned("4294967295", v));
    EXPECT_EQ(v, 4294967295u);

    v = 7;
    for (const char *t : {"", "-1", "-0", "4294967296", "99999999999",
                          "12x", "x", "1 2"}) {
        EXPECT_FALSE(env::parseUnsigned(t, v)) << "'" << t << "'";
        EXPECT_EQ(v, 7u) << t; // untouched on failure
    }
    EXPECT_FALSE(env::parseUnsigned(nullptr, v));
}

TEST(Env, EnvLookupsFallBackToDefaults)
{
    // Save and scrub; restore at the end so the test is order-neutral.
    // Raw getenv is the point here: the test manipulates the process
    // environment underneath the env:: helpers it exercises.
    // vmmx_lint: allow(env-discipline)
    const char *saved = std::getenv("VMMX_TEST_KNOB");
    std::string savedValue = saved ? saved : "";

    ::unsetenv("VMMX_TEST_KNOB");
    EXPECT_TRUE(env::flag("VMMX_TEST_KNOB", true));
    EXPECT_FALSE(env::flag("VMMX_TEST_KNOB", false));
    EXPECT_EQ(env::str("VMMX_TEST_KNOB", "dflt"), "dflt");

    ::setenv("VMMX_TEST_KNOB", "off", 1);
    EXPECT_FALSE(env::flag("VMMX_TEST_KNOB", true));
    ::setenv("VMMX_TEST_KNOB", "64k", 1);
    EXPECT_EQ(env::str("VMMX_TEST_KNOB", "dflt"), "64k");

    // Garbage warns and falls back to the default rather than aborting.
    ::setenv("VMMX_TEST_KNOB", "sideways", 1);
    EXPECT_TRUE(env::flag("VMMX_TEST_KNOB", true));

    if (saved)
        ::setenv("VMMX_TEST_KNOB", savedValue.c_str(), 1);
    else
        ::unsetenv("VMMX_TEST_KNOB");
}

TEST(Env, ParseFaultSpecDirectivesScopesAndSynonyms)
{
    // The documented example: a scoped kill, an unscoped frame
    // corruption, and a scoped stall.
    std::vector<env::FaultAction> plan;
    std::string err;
    ASSERT_TRUE(env::parseFaultSpec(
        "kill-after-units=3@worker1,corrupt-frame=7,stall@worker2", plan,
        err))
        << err;
    ASSERT_EQ(plan.size(), 3u);

    EXPECT_EQ(plan[0].kind, env::FaultAction::Kind::KillAfterUnits);
    EXPECT_EQ(plan[0].value, 3u);
    EXPECT_EQ(plan[0].worker, 1);
    EXPECT_FALSE(plan[0].applies(0));
    EXPECT_TRUE(plan[0].applies(1));

    EXPECT_EQ(plan[1].kind, env::FaultAction::Kind::CorruptFrame);
    EXPECT_EQ(plan[1].value, 7u);
    EXPECT_EQ(plan[1].worker, -1) << "unscoped applies to every worker";
    EXPECT_TRUE(plan[1].applies(0));
    EXPECT_TRUE(plan[1].applies(5));

    EXPECT_EQ(plan[2].kind, env::FaultAction::Kind::Stall);
    EXPECT_EQ(plan[2].worker, 2);

    // The remaining directive names, and a bare stall.
    ASSERT_TRUE(env::parseFaultSpec(
        "kill-mid-unit=2,kill-on-point=5,exit-code=7,stall", plan, err))
        << err;
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0].kind, env::FaultAction::Kind::KillMidUnit);
    EXPECT_EQ(plan[1].kind, env::FaultAction::Kind::KillOnPoint);
    EXPECT_EQ(plan[2].kind, env::FaultAction::Kind::ExitCode);
    EXPECT_EQ(plan[3].kind, env::FaultAction::Kind::Stall);
    EXPECT_EQ(plan[3].worker, -1);

    // Null or empty is an empty plan, not an error.
    EXPECT_TRUE(env::parseFaultSpec(nullptr, plan, err));
    EXPECT_TRUE(plan.empty());
    EXPECT_TRUE(env::parseFaultSpec("", plan, err));
    EXPECT_TRUE(plan.empty());
}

TEST(Env, ParseFaultSpecRejectsJunkWithADiagnosis)
{
    std::vector<env::FaultAction> plan;
    std::string err;
    for (const char *t :
         {"explode",                      // unknown directive
          "kill-after-units",             // missing required value
          "kill-after-units=",            // empty value
          "kill-after-units=many",        // non-numeric value
          "kill-after-units=3@",          // empty scope
          "kill-after-units=3@worker",    // scope without an ordinal
          "kill-after-units=3@workerX",   // non-numeric ordinal
          "kill-after-units=3@machine1",  // wrong scope keyword
          "stall=worker",                 // a scope in value position
          "stall=worker2"}) {             // (spell it stall@worker2)
        err.clear();
        EXPECT_FALSE(env::parseFaultSpec(t, plan, err)) << "'" << t << "'";
        EXPECT_FALSE(err.empty()) << "'" << t << "'";
    }
}

} // namespace
} // namespace vmmx
