#include "dist/protocol.hh"

#include "harness/harness_io.hh"

namespace vmmx::dist
{

namespace
{

wire::Writer
begin(Msg type)
{
    wire::Writer w;
    w.byte(static_cast<u8>(type));
    return w;
}

/** Body reader for a frame whose leading type byte was checked. */
wire::Reader
body(const std::vector<u8> &frame)
{
    return {frame.data() + 1, frame.size() - 1};
}

// Codec-lockstep guards: mirror structs that restate every field each
// codec serializes.  Adding a field to the real struct without updating
// its codec (and this mirror) fails to compile here instead of silently
// shipping a short frame.
struct SetupMsgMirror
{
    u32 version;
    std::string storeDir;
    bool quiet;
    u32 workerId;
    std::string faultSpec;
    bool telemetry;
};
static_assert(sizeof(SetupMsg) == sizeof(SetupMsgMirror),
              "SetupMsg changed: update encode/decode and the mirror");

struct JobGroupMsgMirror
{
    std::vector<u32> indices;
    std::vector<SweepPoint> points;
};
static_assert(sizeof(JobGroupMsg) == sizeof(JobGroupMsgMirror),
              "JobGroupMsg changed: update encode/decode and the mirror");

struct ResultMsgMirror
{
    u32 index;
    u64 traceLength;
    RunResult result;
};
static_assert(sizeof(ResultMsg) == sizeof(ResultMsgMirror),
              "ResultMsg changed: update encode/decode and the mirror");

struct StatsMsgMirror
{
    u64 generations, hits, diskLoads, storeSaves, bytesResident, decodes,
        decodedHits, decodedBytes;
};
static_assert(sizeof(StatsMsg) == sizeof(StatsMsgMirror),
              "StatsMsg changed: update encode/decode and the mirror");

struct SpanRecordMirror
{
    std::string name;
    std::string detail;
    u64 startNs;
    u64 durNs;
    u64 pid;
    u32 tid;
    s32 workerId;
};
static_assert(sizeof(telemetry::SpanRecord) == sizeof(SpanRecordMirror),
              "SpanRecord changed: update the Event codec and mirror");

struct UnitRecordMirror
{
    u64 traceHash;
    std::string label;
    u32 points;
    u64 records;
    u64 wallNs;
    s32 workerId;
    std::string simd;
};
static_assert(sizeof(telemetry::UnitRecord) == sizeof(UnitRecordMirror),
              "UnitRecord changed: update the Event codec and mirror");

struct EventMsgMirror
{
    u32 workerId;
    u64 pid;
    std::vector<telemetry::SpanRecord> spans;
    std::vector<telemetry::UnitRecord> units;
};
static_assert(sizeof(EventMsg) == sizeof(EventMsgMirror),
              "EventMsg changed: update encode/decode and the mirror");

} // namespace

Msg
frameType(const std::vector<u8> &frame)
{
    return frame.empty() ? Msg(0) : static_cast<Msg>(frame[0]);
}

std::vector<u8>
encode(const SetupMsg &m)
{
    wire::Writer w = begin(Msg::Setup);
    w.fixed32(m.version);
    w.str(m.storeDir);
    w.boolean(m.quiet);
    w.fixed32(m.workerId);
    w.str(m.faultSpec);
    w.boolean(m.telemetry);
    return w.take();
}

bool
decode(const std::vector<u8> &frame, SetupMsg &m)
{
    if (frameType(frame) != Msg::Setup)
        return false;
    wire::Reader r = body(frame);
    m.version = r.fixed32();
    m.storeDir = r.str();
    m.quiet = r.boolean();
    m.workerId = r.fixed32();
    m.faultSpec = r.str();
    m.telemetry = r.boolean();
    return r.ok() && r.atEnd() && m.version == protocolVersion;
}

std::vector<u8>
encode(const JobGroupMsg &m)
{
    wire::Writer w = begin(Msg::JobGroup);
    w.varint(m.indices.size());
    for (size_t i = 0; i < m.indices.size(); ++i) {
        w.fixed32(m.indices[i]);
        serialize(w, m.points[i]);
    }
    return w.take();
}

bool
decode(const std::vector<u8> &frame, JobGroupMsg &m)
{
    if (frameType(frame) != Msg::JobGroup)
        return false;
    wire::Reader r = body(frame);
    u64 n = r.varint();
    if (!r.ok() || n == 0 || n > r.remaining())
        return false;
    m.indices.clear();
    m.points.clear();
    m.indices.reserve(n);
    m.points.reserve(n);
    for (u64 i = 0; i < n; ++i) {
        m.indices.push_back(r.fixed32());
        SweepPoint p;
        if (!deserialize(r, p))
            return false;
        m.points.push_back(std::move(p));
    }
    return r.ok() && r.atEnd();
}

std::vector<u8>
encodeDone()
{
    return begin(Msg::Done).take();
}

std::vector<u8>
encode(const ResultMsg &m)
{
    wire::Writer w = begin(Msg::Result);
    w.fixed32(m.index);
    w.varint(m.traceLength);
    serialize(w, m.result);
    return w.take();
}

bool
decode(const std::vector<u8> &frame, ResultMsg &m)
{
    if (frameType(frame) != Msg::Result)
        return false;
    wire::Reader r = body(frame);
    m.index = r.fixed32();
    m.traceLength = r.varint();
    return deserialize(r, m.result) && r.atEnd();
}

std::vector<u8>
encode(const StatsMsg &m)
{
    wire::Writer w = begin(Msg::Stats);
    w.varint(m.generations);
    w.varint(m.hits);
    w.varint(m.diskLoads);
    w.varint(m.storeSaves);
    w.varint(m.bytesResident);
    w.varint(m.decodes);
    w.varint(m.decodedHits);
    w.varint(m.decodedBytes);
    return w.take();
}

bool
decode(const std::vector<u8> &frame, StatsMsg &m)
{
    if (frameType(frame) != Msg::Stats)
        return false;
    wire::Reader r = body(frame);
    m.generations = r.varint();
    m.hits = r.varint();
    m.diskLoads = r.varint();
    m.storeSaves = r.varint();
    m.bytesResident = r.varint();
    m.decodes = r.varint();
    m.decodedHits = r.varint();
    m.decodedBytes = r.varint();
    return r.ok() && r.atEnd();
}

std::vector<u8>
encodeError(const std::string &what)
{
    wire::Writer w = begin(Msg::Error);
    w.str(what);
    return w.take();
}

bool
decodeError(const std::vector<u8> &frame, std::string &what)
{
    if (frameType(frame) != Msg::Error)
        return false;
    wire::Reader r = body(frame);
    what = r.str();
    return r.ok();
}

std::vector<u8>
encode(const EventMsg &m)
{
    wire::Writer w = begin(Msg::Event);
    w.fixed32(m.workerId);
    w.varint(m.pid);
    w.varint(m.spans.size());
    for (const telemetry::SpanRecord &s : m.spans) {
        w.str(s.name);
        w.str(s.detail);
        w.varint(s.startNs);
        w.varint(s.durNs);
        w.varint(s.tid);
    }
    w.varint(m.units.size());
    for (const telemetry::UnitRecord &u : m.units) {
        w.fixed64(u.traceHash);
        w.str(u.label);
        w.varint(u.points);
        w.varint(u.records);
        w.varint(u.wallNs);
        w.str(u.simd);
    }
    return w.take();
}

bool
decode(const std::vector<u8> &frame, EventMsg &m)
{
    if (frameType(frame) != Msg::Event)
        return false;
    wire::Reader r = body(frame);
    m.workerId = r.fixed32();
    m.pid = r.varint();
    u64 nSpans = r.varint();
    if (!r.ok() || nSpans > r.remaining())
        return false;
    m.spans.clear();
    m.spans.reserve(nSpans);
    for (u64 i = 0; i < nSpans; ++i) {
        telemetry::SpanRecord s;
        s.name = r.str();
        s.detail = r.str();
        s.startNs = r.varint();
        s.durNs = r.varint();
        s.tid = u32(r.varint());
        // pid/workerId ride once per frame; stamp them per record so
        // callers can merge frames from many workers into one buffer.
        s.pid = m.pid;
        s.workerId = s32(m.workerId);
        if (!r.ok())
            return false;
        m.spans.push_back(std::move(s));
    }
    u64 nUnits = r.varint();
    if (!r.ok() || nUnits > r.remaining())
        return false;
    m.units.clear();
    m.units.reserve(nUnits);
    for (u64 i = 0; i < nUnits; ++i) {
        telemetry::UnitRecord u;
        u.traceHash = r.fixed64();
        u.label = r.str();
        u.points = u32(r.varint());
        u.records = r.varint();
        u.wallNs = r.varint();
        u.simd = r.str();
        u.workerId = s32(m.workerId);
        if (!r.ok())
            return false;
        m.units.push_back(std::move(u));
    }
    return r.ok() && r.atEnd();
}

} // namespace vmmx::dist
