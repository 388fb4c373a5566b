/**
 * @file
 * Compact binary codec for dynamic instruction traces.
 *
 * Traces are highly regular: effective addresses walk the memory image
 * near-sequentially, static ids advance by small steps, and most records
 * touch no memory at all.  The codec therefore delta-encodes addresses and
 * static ids against the previous record, packs the rarely-changing flags
 * (element width, branch direction, field presence) into one byte, and
 * omits absent fields entirely; everything variable-length goes through
 * LEB128 varints.  The result is bit-exact on decode and typically >4x
 * smaller than the in-memory InstRecord array, which is what makes the
 * on-disk TraceStore and the driver/worker wire protocol affordable for
 * application-scale (mpeg2enc) traces.
 *
 * This header is also the canonical home of SharedTrace (the immutable
 * trace handle shared by the cache, the store, and the sweep engines) and
 * TraceKey (the stable identity of a generated trace).
 */

#ifndef VMMX_TRACE_TRACE_IO_HH
#define VMMX_TRACE_TRACE_IO_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dist/wire.hh"
#include "isa/inst.hh"
#include "isa/simd_kind.hh"

namespace vmmx
{

/** Immutable, shareable dynamic instruction trace. */
using SharedTrace = std::shared_ptr<const std::vector<InstRecord>>;

/**
 * Stable identity of a generated trace.  Trace generation is execution
 * driven and deterministic, so this key fully determines the trace bytes
 * across processes, machines and builds (staticIds hash source basenames).
 */
struct TraceKey
{
    bool isApp = false;
    std::string name;
    SimdKind kind = SimdKind::MMX64;
    u32 imageBytes = 0;
    u64 seed = 0;

    bool operator<(const TraceKey &o) const
    {
        return std::tie(isApp, name, kind, imageBytes, seed) <
               std::tie(o.isApp, o.name, o.kind, o.imageBytes, o.seed);
    }
    bool operator==(const TraceKey &o) const = default;

    /** e.g. "kernel:idct/vmmx128/16MiB/seed=beef". */
    std::string describe() const;
};

/** Append @p trace to @p w (varint count + delta-encoded records). */
void encodeTrace(const std::vector<InstRecord> &trace, wire::Writer &w);

/**
 * Decode a trace previously written by encodeTrace().
 * @return false (leaving @p out unspecified) on a malformed stream.
 */
bool decodeTrace(wire::Reader &r, std::vector<InstRecord> &out);

/**
 * encodeTrace() for a trace that arrives in blocks: add() them in order,
 * then finish() appends bytes identical to encodeTrace() of their
 * concatenation.  The encoded records are buffered until finish()
 * because the record count leads the encoding.
 */
class TraceEncoder
{
  public:
    void add(std::span<const InstRecord> records);
    void finish(wire::Writer &w) const;

  private:
    wire::Writer body_;
    u64 count_ = 0;
    Addr prevAddr_ = 0;
    u32 prevStatic_ = 0;
    u16 prevRegion_ = 0;
};

/**
 * decodeTrace() a block at a time: begin() reads the record count, then
 * each next() decodes up to @p maxRecords further records into @p out
 * (replacing its contents) until remaining() is 0.  Either call returns
 * false on malformed input, which leaves @p out unspecified.
 */
class TraceDecoder
{
  public:
    bool begin(wire::Reader &r);
    bool next(wire::Reader &r, std::vector<InstRecord> &out,
              size_t maxRecords);
    u64 remaining() const { return remaining_; }

  private:
    u64 remaining_ = 0;
    Addr prevAddr_ = 0;
    u32 prevStatic_ = 0;
    u16 prevRegion_ = 0;
};

void serialize(wire::Writer &w, const TraceKey &key);
bool deserialize(wire::Reader &r, TraceKey &key);

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_IO_HH
