/**
 * @file
 * Tests for the observability substrate (common/telemetry.hh): span
 * recording and ordering, the metrics registry's deterministic JSON
 * dump, JSON escaping, and the load-bearing invariant that telemetry
 * never changes results -- a randomized sweep grid must be
 * bit-identical with it on or off.
 */

#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "common/telemetry.hh"
#include "harness/executor.hh"
#include "isa/simd_kind.hh"

namespace vmmx
{
namespace
{

/** Every test starts and ends with telemetry off and both singletons
 *  empty, so tests are order-neutral within the binary. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void SetUp() override { reset(); }
    void TearDown() override { reset(); }

    static void
    reset()
    {
        telemetry::setEnabled(false);
        telemetry::Tracer::instance().clear();
        telemetry::Registry::instance().clear();
    }
};

TEST_F(TelemetryTest, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(telemetry::enabled());
    {
        TELEMETRY_SPAN("outer");
        TELEMETRY_SPAN("inner", "detail");
    }
    EXPECT_TRUE(telemetry::Tracer::instance().drain().empty());
}

TEST_F(TelemetryTest, NestedSpansOrderAndAttribution)
{
    telemetry::setEnabled(true);
    {
        TELEMETRY_SPAN("outer", "unit-0");
        TELEMETRY_SPAN("inner");
    }
    auto spans = telemetry::Tracer::instance().drain();
    ASSERT_EQ(spans.size(), 2u);
    // Spans are recorded at scope exit, so the inner one lands first;
    // its start is within the outer's window.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].detail, "unit-0");
    EXPECT_GE(spans[0].startNs, spans[1].startNs);
    EXPECT_LE(spans[0].startNs + spans[0].durNs,
              spans[1].startNs + spans[1].durNs);
    // Local spans carry this pid and workerId -1.
    EXPECT_EQ(spans[0].pid, u64(::getpid()));
    EXPECT_EQ(spans[0].workerId, -1);
    // drain() emptied the buffer.
    EXPECT_TRUE(telemetry::Tracer::instance().drain().empty());
}

TEST_F(TelemetryTest, TraceEventJsonShape)
{
    telemetry::setEnabled(true);
    { TELEMETRY_SPAN("phase", "with \"quotes\" and\nnewline"); }
    telemetry::Tracer::instance().setProcessName(u64(::getpid()),
                                                "driver");
    std::ostringstream os;
    telemetry::Tracer::instance().writeTraceEvents(os);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
    EXPECT_NE(json.find("\"driver\""), std::string::npos);
    // The detail string was escaped, not embedded raw.
    EXPECT_EQ(json.find('\n' + std::string("newline")),
              std::string::npos);
    EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
}

TEST_F(TelemetryTest, RegistryCountersGaugesAndSortedDump)
{
    auto &reg = telemetry::Registry::instance();
    reg.addCounter("z.count", 2);
    reg.addCounter("z.count", 3); // counters accumulate
    reg.setGauge("a.gauge", 7);
    reg.setGauge("a.gauge", 9); // gauges are last-write-wins

    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    size_t gauge = json.find("\"gauge\": 9");
    size_t count = json.find("\"count\": 5");
    ASSERT_NE(gauge, std::string::npos) << json;
    ASSERT_NE(count, std::string::npos) << json;
    EXPECT_LT(gauge, count) << "sections are sorted by name";
}

TEST_F(TelemetryTest, DumpJsonNestsByDottedPrefixWithUnits)
{
    auto &reg = telemetry::Registry::instance();
    reg.addCounter("dist.respawns", 1);
    reg.setGauge("repo.decodes", 24);
    reg.setGauge("toplevel", 3);
    telemetry::UnitRecord rec;
    rec.traceHash = 42;
    rec.label = "idct/vmmx128/4-way";
    rec.points = 3;
    rec.records = 100;
    rec.wallNs = 2'000'000'000ull; // 1.5 points/s
    reg.addUnit(std::move(rec));

    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"dist\""), std::string::npos);
    EXPECT_NE(json.find("\"respawns\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"repo\""), std::string::npos);
    EXPECT_NE(json.find("\"toplevel\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"units\""), std::string::npos);
    // Host stamp: the sanitizer the binary was built with always rides
    // along ("none" in a plain build).
    EXPECT_NE(json.find("\"host\""), std::string::npos);
    EXPECT_NE(json.find("\"sanitizer\": \""), std::string::npos);
    // ...and so does the process's peak RSS, nonzero in any process.
    size_t rss = json.find("\"peakRssKiB\": ");
    ASSERT_NE(rss, std::string::npos) << json;
    EXPECT_GT(std::stoull(json.substr(rss + 14)), 0u);
    EXPECT_NE(json.find("\"label\":\"idct/vmmx128/4-way\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceHash\":42"), std::string::npos);
    EXPECT_NE(json.find("\"workerId\":-1"), std::string::npos);

    // Unit buffering: drainUnits() hands the records over and empties.
    std::vector<telemetry::UnitRecord> units = reg.drainUnits();
    ASSERT_EQ(units.size(), 1u);
    EXPECT_DOUBLE_EQ(units[0].pointsPerSec(), 1.5);
    EXPECT_TRUE(reg.drainUnits().empty());
}

TEST_F(TelemetryTest, JsonEscape)
{
    EXPECT_EQ(telemetry::jsonEscape("plain"), "plain");
    EXPECT_EQ(telemetry::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(telemetry::jsonEscape("x\ny"), "x\\ny");
    EXPECT_EQ(telemetry::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

/** Telemetry is purely observational.  A
 *  randomized grid run with spans + unit records on must be
 *  bit-identical to the same grid with telemetry off. */
TEST_F(TelemetryTest, SweepResultsBitIdenticalOnOrOff)
{
    const std::vector<std::string> kernels = {"motion1", "comp",
                                              "addblock", "ltpfilt"};
    const std::vector<unsigned> ways = {2, 4, 8};
    Rng rng(20260808);
    std::vector<SweepPoint> points;
    for (int i = 0; i < 10; ++i) {
        SweepPoint p;
        p.name = kernels[size_t(rng.range(0, s64(kernels.size()) - 1))];
        p.kind = allSimdKinds[size_t(
            rng.range(0, s64(allSimdKinds.size()) - 1))];
        p.way = ways[size_t(rng.range(0, s64(ways.size()) - 1))];
        points.push_back(std::move(p));
    }

    ExecutionPolicy policy;
    policy.backend = ExecutionPolicy::Backend::ThreadPool;
    policy.threads = 2;
    TraceRepository repo;
    policy.repo = &repo;

    telemetry::setEnabled(false);
    auto off = runPoints(points, policy);

    telemetry::setEnabled(true);
    auto on = runPoints(points, policy);
    telemetry::setEnabled(false);

    ASSERT_EQ(on.size(), off.size());
    for (size_t i = 0; i < off.size(); ++i)
        EXPECT_TRUE(on[i].sameRun(off[i]))
            << "telemetry changed results at " << points[i].label();

    // And the instrumented run actually produced observations.
    EXPECT_FALSE(telemetry::Tracer::instance().drain().empty());
    EXPECT_FALSE(telemetry::Registry::instance().drainUnits().empty());
}

} // namespace
} // namespace vmmx
