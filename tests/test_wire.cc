/**
 * @file
 * Wire-format tests: every serialized type must round-trip bit-exactly,
 * including boundary values, the trace codec must actually compress,
 * and a torn frame must not commit the memory its header declares.
 * Property-style: InstRecords are driven through the codec both with
 * hand-picked extreme field values and with thousands of randomized
 * records from the deterministic Rng.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dist/protocol.hh"
#include "dist/wire.hh"
#include "harness/harness_io.hh"
#include "trace/trace_repo.hh"
#include "trace/trace_io.hh"

namespace vmmx
{
namespace
{

class WireTest : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
};

TEST_F(WireTest, VarintBoundariesRoundTrip)
{
    const u64 values[] = {0,          1,
                          127,        128,
                          16383,      16384,
                          0xffffffffull, 0x100000000ull,
                          ~0ull - 1,  ~0ull};
    wire::Writer w;
    for (u64 v : values)
        w.varint(v);
    wire::Reader r(w.buffer());
    for (u64 v : values)
        EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST_F(WireTest, SvarintBoundariesRoundTrip)
{
    const s64 values[] = {0,  1,  -1, 63, -63, 64, -64, 8191, -8192,
                          s64(0x7fffffffffffffffll),
                          s64(-0x7fffffffffffffffll - 1)};
    wire::Writer w;
    for (s64 v : values)
        w.svarint(v);
    wire::Reader r(w.buffer());
    for (s64 v : values)
        EXPECT_EQ(r.svarint(), v);
    EXPECT_TRUE(r.ok());
    // Small magnitudes of either sign must stay single-byte.
    wire::Writer small;
    small.svarint(-63);
    EXPECT_EQ(small.size(), 1u);
}

TEST_F(WireTest, VarintSevenBitBoundariesExhaustive)
{
    // Every 2^(7k) threshold changes the encoded length; round-trip the
    // exact threshold and both neighbours for every k up to the u64 top.
    std::vector<u64> values;
    for (unsigned k = 1; k <= 9; ++k) {
        u64 edge = 1ull << (7 * k);
        values.push_back(edge - 1);
        values.push_back(edge);
        values.push_back(edge + 1);
    }
    wire::Writer w;
    for (u64 v : values)
        w.varint(v);
    wire::Reader r(w.buffer());
    for (u64 v : values)
        EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok() && r.atEnd());

    // Encoded length is exactly ceil(bits/7): k bytes up to 2^(7k)-1,
    // one more at 2^(7k).
    for (unsigned k = 1; k <= 9; ++k) {
        wire::Writer below;
        below.varint((1ull << (7 * k)) - 1);
        EXPECT_EQ(below.size(), k);
        wire::Writer at;
        at.varint(1ull << (7 * k));
        EXPECT_EQ(at.size(), k + 1);
    }
    wire::Writer top;
    top.varint(~0ull);
    EXPECT_EQ(top.size(), 10u);
}

TEST_F(WireTest, VarintTenthByteOverflowRejected)
{
    // ~0ull is the canonical worst case: nine 0xff bytes, then a tenth
    // byte carrying only bit 63.
    wire::Writer w;
    w.varint(~0ull);
    ASSERT_EQ(w.size(), 10u);
    EXPECT_EQ(w.buffer()[9], 0x01);

    // A tenth byte with anything beyond bit 0 encodes >= 2^64 (or asks
    // for an eleventh byte): corrupt or hostile input, which must trip
    // ok() instead of silently truncating mod 2^64 or shifting by >= 64.
    for (u8 bad : {u8(0x02), u8(0x7f), u8(0x80), u8(0xff)}) {
        std::vector<u8> bytes(10, 0xff);
        bytes[9] = bad;
        wire::Reader r(bytes.data(), bytes.size());
        r.varint();
        EXPECT_FALSE(r.ok()) << "tenth byte 0x" << std::hex << unsigned(bad);
    }

    // A continuation bit running off the end of the buffer underflows.
    const u8 dangling[] = {0x80};
    wire::Reader r(dangling, sizeof(dangling));
    r.varint();
    EXPECT_FALSE(r.ok());

    // Overlong zero padding stays in range and decodes to 0: readers
    // are liberal about padding, strict about value bits.
    std::vector<u8> padded(10, 0x80);
    padded[9] = 0x00;
    wire::Reader pr(padded.data(), padded.size());
    EXPECT_EQ(pr.varint(), 0u);
    EXPECT_TRUE(pr.ok());
}

TEST_F(WireTest, SvarintExtremesUseTenBytes)
{
    // Zigzag maps s64 min/max to the top two u64 values; both must take
    // the full ten bytes and come back exact.
    const s64 hi = s64(0x7fffffffffffffffll);
    const s64 lo = s64(-0x7fffffffffffffffll - 1);
    wire::Writer w;
    w.svarint(hi);
    w.svarint(lo);
    EXPECT_EQ(w.size(), 20u);
    wire::Reader r(w.buffer());
    EXPECT_EQ(r.svarint(), hi);
    EXPECT_EQ(r.svarint(), lo);
    EXPECT_TRUE(r.ok() && r.atEnd());
}

TEST_F(WireTest, FixedStringsAndUnderflow)
{
    wire::Writer w;
    w.fixed32(0xdeadbeef);
    w.fixed64(0x0123456789abcdefull);
    w.str(std::string("nul\0inside", 10));
    w.str("");
    wire::Reader r(w.buffer());
    EXPECT_EQ(r.fixed32(), 0xdeadbeefu);
    EXPECT_EQ(r.fixed64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.ok() && r.atEnd());

    // Underflow is sticky and quiet, never fatal.
    EXPECT_EQ(r.fixed64(), 0u);
    EXPECT_FALSE(r.ok());
    wire::Reader trunc(w.buffer().data(), 2);
    trunc.fixed32();
    EXPECT_FALSE(trunc.ok());
}

InstRecord
randomRecord(Rng &rng)
{
    auto randomReg = [&rng]() -> RegId {
        auto cls = static_cast<RegClass>(rng.below(5));
        // The codec stores no index for RegClass::None (an absent
        // register is canonically {None, 0}, which is what the trace
        // DSL emits).
        return {cls, cls == RegClass::None ? u8(0) : rng.byte()};
    };
    InstRecord i;
    i.op = static_cast<Opcode>(
        rng.below(static_cast<u64>(Opcode::NUM_OPCODES)));
    i.ew = static_cast<ElemWidth>(rng.below(4));
    i.dst = randomReg();
    i.src0 = randomReg();
    i.src1 = randomReg();
    i.src2 = randomReg();
    // Mix sequential-ish addresses with extremes.
    switch (rng.below(4)) {
      case 0: i.addr = 0; break;
      case 1: i.addr = rng.below(1u << 20); break;
      case 2: i.addr = ~0ull - rng.below(64); break;
      default: i.addr = rng.next(); break;
    }
    i.rowBytes = u16(rng.below(3) ? rng.below(64) : 0xffff);
    switch (rng.below(4)) {
      case 0: i.stride = 0; break;
      case 1: i.stride = s32(i.rowBytes); break;
      case 2: i.stride = -s32(rng.below(1u << 16)); break;
      default: i.stride = s32(rng.next()); break;
    }
    i.vl = u16(rng.below(2) ? rng.below(17) : 0xffff);
    i.taken = rng.below(2);
    i.staticId = rng.below(2) ? u32(rng.below(4096)) : u32(rng.next());
    i.region = u16(rng.below(3) ? rng.below(8) : 0xffff);
    return i;
}

TEST_F(WireTest, InstRecordBoundaryValuesRoundTrip)
{
    std::vector<InstRecord> trace;
    InstRecord i;
    trace.push_back(i); // all defaults
    i.op = static_cast<Opcode>(static_cast<u8>(Opcode::NUM_OPCODES) - 1);
    i.ew = ElemWidth::Q64;
    i.dst = {RegClass::Acc, 255};
    i.src0 = {RegClass::Int, 0};
    i.src1 = {RegClass::None, 0};
    i.src2 = {RegClass::Simd, 31};
    i.addr = ~0ull;
    i.rowBytes = 0xffff;
    i.stride = s32(0x80000000); // INT32_MIN
    i.vl = 0xffff;
    i.taken = true;
    i.staticId = ~0u;
    i.region = 0xffff;
    trace.push_back(i);
    i.addr = 0; // max -> 0 address delta
    i.stride = 0x7fffffff;
    trace.push_back(i);

    wire::Writer w;
    encodeTrace(trace, w);
    wire::Reader r(w.buffer());
    std::vector<InstRecord> back;
    ASSERT_TRUE(decodeTrace(r, back));
    ASSERT_EQ(back.size(), trace.size());
    for (size_t k = 0; k < trace.size(); ++k)
        EXPECT_EQ(back[k], trace[k]) << "record " << k;
}

TEST_F(WireTest, InstRecordRandomizedRoundTrip)
{
    Rng rng(0x5eed);
    std::vector<InstRecord> trace;
    for (int k = 0; k < 5000; ++k)
        trace.push_back(randomRecord(rng));
    wire::Writer w;
    encodeTrace(trace, w);
    wire::Reader r(w.buffer());
    std::vector<InstRecord> back;
    ASSERT_TRUE(decodeTrace(r, back));
    ASSERT_EQ(back.size(), trace.size());
    for (size_t k = 0; k < trace.size(); ++k)
        ASSERT_EQ(back[k], trace[k]) << "record " << k;
}

TEST_F(WireTest, CorruptTraceStreamsFailCleanly)
{
    Rng rng(7);
    std::vector<InstRecord> trace;
    for (int k = 0; k < 32; ++k)
        trace.push_back(randomRecord(rng));
    wire::Writer w;
    encodeTrace(trace, w);

    std::vector<InstRecord> back;
    // Truncations at every prefix length must fail, never crash.
    for (size_t cut = 0; cut + 1 < w.size(); cut += 7) {
        wire::Reader r(w.buffer().data(), cut);
        decodeTrace(r, back); // may succeed only for a full prefix; no UB
    }
    // An opcode byte past the enum must be rejected.
    std::vector<u8> bad = w.buffer();
    bad[1] = 0xff; // first record's opcode
    wire::Reader r(bad);
    EXPECT_FALSE(decodeTrace(r, back));
}

TEST_F(WireTest, RealKernelTraceRoundTripsAndCompresses)
{
    TraceRepository repo;
    for (auto kind : {SimdKind::MMX64, SimdKind::VMMX128}) {
        SharedTrace t = repo.kernel("idct", kind).shared();
        wire::Writer w;
        encodeTrace(*t, w);
        wire::Reader r(w.buffer());
        std::vector<InstRecord> back;
        ASSERT_TRUE(decodeTrace(r, back));
        EXPECT_TRUE(back == *t);

        // The whole point of the delta+varint codec: app-scale traces
        // must shrink by more than 4x against the in-memory layout.
        size_t raw = t->size() * sizeof(InstRecord);
        EXPECT_GT(raw, 4 * w.size())
            << name(kind) << ": " << raw << " raw vs " << w.size()
            << " encoded";
    }
}

TEST_F(WireTest, RunStatsAndRunResultRoundTrip)
{
    RunResult res;
    res.core.cycles = ~0ull;
    res.core.instructions = 123456789012345ull;
    for (size_t c = 0; c < res.core.instByClass.size(); ++c)
        res.core.instByClass[c] = ~0ull - c;
    res.core.scalarCycles = 1;
    res.core.vectorCycles = 0;
    res.core.branches = 42;
    res.core.mispredicts = ~0ull;
    res.core.memOps = 7;
    res.core.renameStallRegs = 1ull << 63;
    res.core.renameStallRob = 127;
    res.core.renameStallIq = 128;
    res.l1Hits = ~0ull;
    res.l1Misses = 0;
    res.l2Hits = 1;
    res.l2Misses = ~0ull - 1;
    res.vecAccesses = 0xcafef00dull;
    res.cohInvalidations = 3;

    wire::Writer w;
    serialize(w, res);
    wire::Reader r(w.buffer());
    RunResult back;
    ASSERT_TRUE(deserialize(r, back));
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(back == res); // every counter, bit-exact
}

TEST_F(WireTest, ConfigAndSweepPointRoundTrip)
{
    Config c;
    c.set("core.robEntries", s64(64));
    c.set("mem.l2Latency", s64(12));
    c.set("label", std::string("with spaces and = signs"));

    SweepPoint p;
    p.workload = SweepPoint::Workload::Kernel;
    p.name = "idct";
    p.kind = SimdKind::VMMX128;
    p.way = 8;
    p.overrides = c;

    wire::Writer w;
    serialize(w, p);
    wire::Reader r(w.buffer());
    SweepPoint back;
    ASSERT_TRUE(deserialize(r, back));
    EXPECT_EQ(back.workload, p.workload);
    EXPECT_EQ(back.name, p.name);
    EXPECT_EQ(back.kind, p.kind);
    EXPECT_EQ(back.way, p.way);
    EXPECT_EQ(back.label(), p.label()); // includes the overrides
    for (const auto &key : c.keys())
        EXPECT_EQ(back.overrides.getString(key), c.getString(key));

    // The last byte is where protocol v8 flagged a shipped trace; it is
    // always 0, so grid signatures and journals keep their bytes.  A 1
    // there, or a workload byte past App, no longer decodes.
    std::vector<u8> bytes = w.buffer();
    ASSERT_EQ(bytes.back(), 0u);
    std::vector<u8> flagged = bytes;
    flagged.back() = 1;
    wire::Reader rf(flagged);
    EXPECT_FALSE(deserialize(rf, back));
    std::vector<u8> workload = bytes;
    ASSERT_EQ(workload[0], u8(SweepPoint::Workload::Kernel));
    workload[0] = 2;
    wire::Reader rw(workload);
    EXPECT_FALSE(deserialize(rw, back));
}

TEST_F(WireTest, ProtocolMessagesRoundTrip)
{
    dist::SetupMsg setup;
    setup.version = dist::protocolVersion;
    setup.storeDir = "/tmp/store";
    setup.quiet = true;
    dist::SetupMsg setup2;
    ASSERT_TRUE(dist::decode(dist::encode(setup), setup2));
    EXPECT_EQ(setup2.storeDir, setup.storeDir);
    EXPECT_EQ(setup2.quiet, setup.quiet);

    // A group of one: what the driver ships when only one point of a
    // trace group is still missing.
    dist::JobGroupMsg job;
    job.indices = {0xfffffffe};
    job.points.resize(1);
    job.points[0].name = "motion2";
    job.points[0].way = 16;
    dist::JobGroupMsg job2;
    ASSERT_TRUE(dist::decode(dist::encode(job), job2));
    ASSERT_EQ(job2.indices.size(), 1u);
    ASSERT_EQ(job2.points.size(), 1u);
    EXPECT_EQ(job2.indices[0], job.indices[0]);
    EXPECT_EQ(job2.points[0].label(), job.points[0].label());

    dist::ResultMsg res;
    res.index = 7;
    res.traceLength = ~0ull;
    res.result.core.cycles = 123;
    dist::ResultMsg res2;
    std::vector<u8> resFrame = dist::encode(res);
    ASSERT_TRUE(dist::decode(resFrame, res2));
    EXPECT_EQ(res2.index, res.index);
    EXPECT_EQ(res2.traceLength, res.traceLength);
    EXPECT_TRUE(res2.result == res.result);
    // Journals store encoded Result frames, so the Result type byte is
    // on-disk format: it has been 4 since protocol v1.
    EXPECT_EQ(resFrame[0], 4u);

    // Wrong-type decodes must fail, not misparse.
    EXPECT_FALSE(dist::decode(resFrame, job2));
    std::string what;
    ASSERT_TRUE(dist::decodeError(dist::encodeError("boom"), what));
    EXPECT_EQ(what, "boom");
}

// Frames larger than readFrame's read chunk arrive whole, and a clean
// hang-up between frames reads as false with nothing half-decoded.
TEST_F(WireTest, FramesRoundTripOverASocket)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::vector<u8> big(3u << 20);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = u8(i * 131 + 7);
    const std::vector<u8> empty, small = {1, 2, 3};
    const std::vector<u8> *frames[] = {&small, &big, &empty};
    std::thread writer([&] {
        for (const std::vector<u8> *f : frames)
            EXPECT_TRUE(wire::writeFrame(sv[1], *f));
        ::close(sv[1]);
    });
    std::vector<u8> got;
    for (const std::vector<u8> *f : frames) {
        EXPECT_TRUE(wire::readFrame(sv[0], got));
        EXPECT_TRUE(got == *f) << f->size() << "-byte frame";
    }
    EXPECT_FALSE(wire::readFrame(sv[0], got));
    writer.join();
    ::close(sv[0]);
}

// A frame header is a claim, not a commitment: a peer that declares a
// 1 GiB payload, sends 3 bytes and hangs up must not make the reader
// commit the gigabyte before it reports the torn frame.
TEST_F(WireTest, TornFrameCommitsOnlyWhatArrived)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const u8 torn[] = {0x00, 0x00, 0x00, 0x40, 'a', 'b', 'c'}; // 1 GiB
    ASSERT_EQ(::write(sv[1], torn, sizeof(torn)), ssize_t(sizeof(torn)));
    ::close(sv[1]);

    rusage before{}, after{};
    ::getrusage(RUSAGE_SELF, &before);
    std::vector<u8> payload;
    EXPECT_FALSE(wire::readFrame(sv[0], payload));
    ::getrusage(RUSAGE_SELF, &after);
    ::close(sv[0]);
    // ru_maxrss is in KiB.
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);
}

TEST_F(WireTest, SetupMsgCarriesTelemetryFlag)
{
    dist::SetupMsg setup;
    setup.telemetry = true;
    dist::SetupMsg back;
    ASSERT_TRUE(dist::decode(dist::encode(setup), back));
    EXPECT_TRUE(back.telemetry);
    setup.telemetry = false;
    ASSERT_TRUE(dist::decode(dist::encode(setup), back));
    EXPECT_FALSE(back.telemetry);
}

TEST_F(WireTest, EventMsgRoundTrip)
{
    dist::EventMsg ev;
    ev.workerId = 3;
    ev.pid = 0x1234567890ull;

    telemetry::SpanRecord outer;
    outer.name = "simulate";
    outer.detail = "idct/vmmx128/4-way \"quoted\"";
    outer.startNs = 1'000'000'000ull;
    outer.durNs = 42'000'000ull;
    outer.tid = 7;
    telemetry::SpanRecord inner;
    inner.name = "trace.decode";
    inner.startNs = 1'000'500'000ull;
    inner.durNs = 1'000ull;
    ev.spans = {outer, inner};

    telemetry::UnitRecord unit;
    unit.traceHash = 0xdeadbeefcafef00dull;
    unit.label = "idct/vmmx128/4-way";
    unit.points = 3;
    unit.records = 4890;
    unit.wallNs = 31'000'000ull;
    unit.simd = "avx2";
    ev.units = {unit};

    dist::EventMsg back;
    ASSERT_TRUE(dist::decode(dist::encode(ev), back));
    EXPECT_EQ(back.workerId, ev.workerId);
    EXPECT_EQ(back.pid, ev.pid);
    ASSERT_EQ(back.spans.size(), 2u);
    EXPECT_EQ(back.spans[0].name, outer.name);
    EXPECT_EQ(back.spans[0].detail, outer.detail);
    EXPECT_EQ(back.spans[0].startNs, outer.startNs);
    EXPECT_EQ(back.spans[0].durNs, outer.durNs);
    EXPECT_EQ(back.spans[0].tid, outer.tid);
    EXPECT_EQ(back.spans[1].name, inner.name);
    ASSERT_EQ(back.units.size(), 1u);
    EXPECT_EQ(back.units[0].traceHash, unit.traceHash);
    EXPECT_EQ(back.units[0].label, unit.label);
    EXPECT_EQ(back.units[0].points, unit.points);
    EXPECT_EQ(back.units[0].records, unit.records);
    EXPECT_EQ(back.units[0].wallNs, unit.wallNs);
    EXPECT_EQ(back.units[0].simd, unit.simd);

    // decode() stamps the frame-level identity onto every record, so
    // the driver's merged timeline attributes spans without trusting
    // whatever the sender left in those fields.
    for (const auto &s : back.spans) {
        EXPECT_EQ(s.pid, ev.pid);
        EXPECT_EQ(s.workerId, 3);
    }
    EXPECT_EQ(back.units[0].workerId, 3);

    // Empty event frames round-trip too (a worker with nothing new).
    dist::EventMsg empty, emptyBack;
    ASSERT_TRUE(dist::decode(dist::encode(empty), emptyBack));
    EXPECT_TRUE(emptyBack.spans.empty());
    EXPECT_TRUE(emptyBack.units.empty());

    // Wrong-type decode fails.
    dist::ResultMsg res2;
    EXPECT_FALSE(dist::decode(dist::encode(ev), res2));
}

} // namespace
} // namespace vmmx
