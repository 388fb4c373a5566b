#include "trace/trace_io.hh"

#include <limits>
#include <sstream>

namespace vmmx
{

// ---- codec lockstep guards ----------------------------------------------
// Mirror structs restating every field the trace codecs serialize: a
// field added to InstRecord or TraceKey without extending
// encodeTrace()/decodeTrace() or serialize()/deserialize() (and the
// mirror) fails to compile here instead of silently dropping data from
// every stored trace.  tools/vmmx_lint enforces that each codec in this
// file keeps a guard.
namespace
{

struct RegIdMirror
{
    RegClass cls;
    u8 idx;
};
static_assert(sizeof(RegId) == sizeof(RegIdMirror),
              "RegId changed: update packCls()/unpackCls(), the per-record "
              "operand bytes, and this mirror");

struct InstRecordMirror
{
    Opcode op;
    ElemWidth ew;
    RegId dst, src0, src1, src2;
    Addr addr;
    u16 rowBytes;
    s32 stride;
    u16 vl;
    bool taken;
    u32 staticId;
    u16 region;
};
static_assert(sizeof(InstRecord) == sizeof(InstRecordMirror),
              "InstRecord changed: update encodeTrace()/decodeTrace(), the "
              "flags byte, and this mirror in lockstep");

struct TraceKeyMirror
{
    bool isApp;
    std::string name;
    SimdKind kind;
    u32 imageBytes;
    u64 seed;
};
static_assert(sizeof(TraceKey) == sizeof(TraceKeyMirror),
              "TraceKey changed: update serialize()/deserialize(), "
              "describe(), TraceStore::path(), and this mirror");

} // namespace

namespace
{

// Per-record flags byte.
constexpr u8 flagTaken = 1u << 0;
constexpr u8 flagEwShift = 1;          // bits 1..2: ElemWidth
constexpr u8 flagEwMask = 3u << flagEwShift;
constexpr u8 flagHasMem = 1u << 3;     // addr/rowBytes/stride block present
constexpr u8 flagHasVl = 1u << 4;      // vl != 0
constexpr u8 flagNewRegion = 1u << 5;  // region differs from previous record

u8
packCls(RegClass a, RegClass b)
{
    return u8(static_cast<u8>(a) | (static_cast<u8>(b) << 4));
}

bool
unpackCls(u8 packed, RegClass &a, RegClass &b)
{
    u8 lo = packed & 0x0f, hi = packed >> 4;
    if (lo > static_cast<u8>(RegClass::None) ||
        hi > static_cast<u8>(RegClass::None))
        return false;
    a = static_cast<RegClass>(lo);
    b = static_cast<RegClass>(hi);
    return true;
}

} // namespace

std::string
TraceKey::describe() const
{
    std::ostringstream os;
    os << (isApp ? "app:" : "kernel:") << name << "/" << vmmx::name(kind)
       << "/" << imageBytes << "B/seed=" << std::hex << seed;
    return os.str();
}

void
TraceEncoder::add(std::span<const InstRecord> records)
{
    wire::Writer &w = body_;
    count_ += records.size();
    for (const InstRecord &i : records) {
        const bool hasMem = i.addr != 0 || i.rowBytes != 0 || i.stride != 0;
        u8 flags = u8(static_cast<u8>(i.ew) << flagEwShift);
        if (i.taken)
            flags |= flagTaken;
        if (hasMem)
            flags |= flagHasMem;
        if (i.vl != 0)
            flags |= flagHasVl;
        if (i.region != prevRegion_)
            flags |= flagNewRegion;

        w.byte(static_cast<u8>(i.op));
        w.byte(flags);
        w.byte(packCls(i.dst.cls, i.src0.cls));
        w.byte(packCls(i.src1.cls, i.src2.cls));
        for (const RegId *r : {&i.dst, &i.src0, &i.src1, &i.src2})
            if (r->valid())
                w.byte(r->idx);
        // Static ids advance by small steps inside a basic block and jump
        // back at loop edges: signed deltas stay short either way.
        w.svarint(s64(i.staticId) - s64(prevStatic_));
        prevStatic_ = i.staticId;
        if (flags & flagNewRegion) {
            w.varint(i.region);
            prevRegion_ = i.region;
        }
        if (hasMem) {
            // Two's-complement delta: exact for any u64 pair, short for
            // the common near-sequential access patterns.
            w.svarint(s64(i.addr - prevAddr_));
            prevAddr_ = i.addr;
            w.varint(i.rowBytes);
            // Unit-stride rows (stride == rowBytes) encode as zero.
            w.svarint(s64(i.stride) - s64(i.rowBytes));
        }
        if (i.vl != 0)
            w.varint(i.vl);
    }
}

void
TraceEncoder::finish(wire::Writer &w) const
{
    w.varint(count_);
    w.bytes(body_.buffer().data(), body_.size());
}

void
encodeTrace(const std::vector<InstRecord> &trace, wire::Writer &w)
{
    TraceEncoder enc;
    enc.add(trace);
    enc.finish(w);
}

bool
TraceDecoder::begin(wire::Reader &r)
{
    remaining_ = r.varint();
    // A record is at least 5 bytes; reject absurd counts up front.
    return r.ok() && remaining_ <= r.remaining();
}

bool
TraceDecoder::next(wire::Reader &r, std::vector<InstRecord> &out,
                   size_t maxRecords)
{
    size_t n = size_t(std::min<u64>(remaining_, maxRecords));
    remaining_ -= n;
    out.clear();
    out.reserve(n);
    for (size_t k = 0; k < n; ++k) {
        InstRecord i;
        u8 op = r.byte();
        if (op >= static_cast<u8>(Opcode::NUM_OPCODES))
            return false;
        i.op = static_cast<Opcode>(op);
        u8 flags = r.byte();
        i.ew = static_cast<ElemWidth>((flags & flagEwMask) >> flagEwShift);
        i.taken = flags & flagTaken;
        if (!unpackCls(r.byte(), i.dst.cls, i.src0.cls) ||
            !unpackCls(r.byte(), i.src1.cls, i.src2.cls))
            return false;
        for (RegId *reg : {&i.dst, &i.src0, &i.src1, &i.src2})
            if (reg->valid())
                reg->idx = r.byte();
        // Delta applications happen in u64 arithmetic: a hostile or
        // corrupt delta plus the running value must wrap (and then fail
        // validation downstream), never overflow a signed add.
        i.staticId = u32(u64(prevStatic_) + u64(r.svarint()));
        prevStatic_ = i.staticId;
        if (flags & flagNewRegion) {
            i.region = u16(r.varint());
            prevRegion_ = i.region;
        } else {
            i.region = prevRegion_;
        }
        if (flags & flagHasMem) {
            i.addr = prevAddr_ + u64(r.svarint());
            prevAddr_ = i.addr;
            i.rowBytes = u16(r.varint());
            i.stride = s32(u64(r.svarint()) + u64(i.rowBytes));
        }
        if (flags & flagHasVl)
            i.vl = u16(r.varint());
        if (!r.ok())
            return false;
        out.push_back(i);
    }
    return true;
}

bool
decodeTrace(wire::Reader &r, std::vector<InstRecord> &out)
{
    TraceDecoder dec;
    return dec.begin(r) &&
           dec.next(r, out, std::numeric_limits<size_t>::max());
}

void
serialize(wire::Writer &w, const TraceKey &key)
{
    w.boolean(key.isApp);
    w.str(key.name);
    w.byte(static_cast<u8>(key.kind));
    w.fixed32(key.imageBytes);
    w.fixed64(key.seed);
}

bool
deserialize(wire::Reader &r, TraceKey &key)
{
    key.isApp = r.boolean();
    key.name = r.str();
    u8 kind = r.byte();
    if (kind > static_cast<u8>(SimdKind::VMMX128))
        return false;
    key.kind = static_cast<SimdKind>(kind);
    key.imageBytes = r.fixed32();
    key.seed = r.fixed64();
    return r.ok();
}

} // namespace vmmx
