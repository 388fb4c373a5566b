/**
 * @file
 * Configuration-independent decode of a dynamic instruction trace.
 *
 * Everything about an InstRecord that does not depend on the machine
 * configuration -- opcode traits, source/destination register slots,
 * memory footprint bounds, branch kind and outcome -- is resolved once
 * into a DecodedInst.  A DecodedStream is the full trace decoded this
 * way: an immutable, shareable artifact that any number of SimContexts
 * (and any number of sweep groups, threads, and batched passes) can
 * replay without re-deriving a single record.
 *
 * The stream lives in the trace layer, not the sim layer, because it is
 * a property of the trace alone: the TraceRepository caches decoded
 * streams as its tier 2, right next to the raw InstRecord tier they are
 * derived from (a decoded stream is ~1.3x the raw bytes).
 */

#ifndef VMMX_TRACE_DECODED_HH
#define VMMX_TRACE_DECODED_HH

#include <memory>
#include <vector>

#include "isa/inst.hh"

namespace vmmx
{

/**
 * Configuration-independent decode of one InstRecord: opcode traits,
 * packed operand lists and the memory footprint, pre-resolved so the
 * per-context step never re-derives them.  Built once per trace (or
 * once per block on the decode-on-the-fly path) and shared read-only
 * by every simulation context that replays the trace.
 */
struct DecodedInst
{
    /** Sentinel register class index: no destination register. */
    static constexpr u8 noDst = 0xff;

    // Flag bits (kept out of per-config state: all trace-determined).
    static constexpr u8 kLoad = 1 << 0;     ///< memory read
    static constexpr u8 kStore = 1 << 1;    ///< memory write
    static constexpr u8 kBranch = 1 << 2;   ///< any control transfer
    static constexpr u8 kCondBr = 1 << 3;   ///< conditional (predicted)
    static constexpr u8 kTaken = 1 << 4;    ///< resolved branch outcome
    static constexpr u8 kReadsDst = 1 << 5; ///< merges into destination
    static constexpr u8 kTakesIq = 1 << 6;  ///< occupies an IQ entry
    static constexpr u8 kVecMem = 1 << 7;   ///< matrix (vector-port) access
    Addr addr = 0;     ///< memory: resolved effective address
    Addr lo = 0;       ///< memory: footprint lower bound (inclusive)
    Addr hi = 0;       ///< memory: footprint upper bound (exclusive)
    u32 staticId = 0;  ///< static site (branch predictor)
    s32 stride = 0;    ///< memory: byte stride between rows
    u16 vl = 0;        ///< raw vector length (0 = scalar / 1-D)
    u16 rows = 1;      ///< rows processed (vl, or 1)
    u16 rowBytes = 0;  ///< bytes per row
    u16 region = 0;    ///< cycle-attribution region tag
    u8 fu = 0;         ///< FuType of the executing unit
    u8 latency = 0;    ///< post-issue execution latency
    u8 clsIdx = 0;     ///< InstClass index (stats bucket)
    u8 flags = 0;
    u8 mulOcc = 1;     ///< IntMul pool occupancy
    u8 transp = 0;     ///< occupies the lane-exchange network (VTRANSP)
    u8 dstCls = noDst; ///< destination register class index, or noDst
    u8 dstReg = 0;     ///< destination slot in the flat ready table
    u8 nSrcs = 0;      ///< valid entries in srcReg
    u8 srcReg[3] = {}; ///< source slots in the flat ready table

    bool has(u8 flag) const { return flags & flag; }
};

/** Flat per-logical-register ready-table size the decoded slot numbers
 *  index into: all classes side by side (64 Int | 64 Fp | 64 Simd |
 *  8 Acc).  SimContext sizes its table with this so decode and step
 *  cannot drift apart. */
constexpr size_t decodedReadySlots = 200;

/** Resolve the configuration-independent properties of @p inst. */
DecodedInst decodeInst(const InstRecord &inst);

/**
 * A whole trace decoded record for record.  Immutable once built; the
 * TraceRepository hands it out behind SharedDecoded so concurrent sweep
 * groups replay one decode instead of one per group.
 */
struct DecodedStream
{
    std::vector<DecodedInst> insts;

    size_t size() const { return insts.size(); }
    bool empty() const { return insts.empty(); }
    /** Resident footprint (what decodedStats().bytes counts). */
    u64 bytes() const { return insts.size() * sizeof(DecodedInst); }
};

/** Immutable, shareable decoded stream (tier-2 cache handle payload). */
using SharedDecoded = std::shared_ptr<const DecodedStream>;

/** Decode every record of @p trace (the tier-2 fill operation). */
DecodedStream decodeStream(const std::vector<InstRecord> &trace);

} // namespace vmmx

#endif // VMMX_TRACE_DECODED_HH
