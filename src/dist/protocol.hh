/**
 * @file
 * Driver/worker message protocol for distributed sweeps.
 *
 * Transport is a byte stream (a socketpair today; the framing is
 * transport-agnostic) carrying length-prefixed frames whose payload is a
 * one-byte message type followed by a typed body.  The driver opens with
 * Setup, then streams work as trace groups (JobGroup: the points that
 * replay one trace, or the still-missing ones of a group), each
 * answered with one Result per point -- the journal's entry format.
 * The worker answers the final Done with a Stats frame before exiting.
 * A worker that cannot continue sends Error and exits nonzero.
 *
 *   driver -> worker : Setup, JobGroup*, Done
 *   worker -> driver : (Result | Event)*, Stats | Error
 */

#ifndef VMMX_DIST_PROTOCOL_HH
#define VMMX_DIST_PROTOCOL_HH

#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "dist/wire.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"

namespace vmmx::dist
{

/** v11: Stats carries only what a streaming worker counts: generations,
 *  disk loads and store saves.  (v10 dropped Setup's fault plan and made
 *  workerId the worker's slot; v9 dropped the trace a JobGroup point could carry -- every
 *  point is a kernel or app the worker streams by TraceKey, and the
 *  byte that flagged a shipped trace must be 0; v8 retired the
 *  single-point Job frame (type byte 2) and Setup's raw-tier budget; v7
 *  dropped the decoded-tier switch and budget; v6 named the host-SIMD
 *  step-kernel path in each Event unit record; v5 added Event telemetry
 *  frames -- buffered spans + per-unit timing records interleaved with
 *  Results, purely observational; v4 supervised workers with spawn
 *  ordinals and fault specs; v3 the tiered-repository budgets; v2
 *  JobGroup frames.)  Result frames are unchanged since v1, so journals
 *  written by every earlier version still resume. */
constexpr u32 protocolVersion = 11;

/** Frame type bytes.  The values are wire format -- the journal stores
 *  encoded Result frames, so Result must stay 4 for journals written by
 *  earlier versions to resume -- and a retired value is never reused. */
enum class Msg : u8
{
    Setup = 1,    ///< driver->worker: session parameters
    Done = 3,     ///< driver->worker: no more work; reply Stats and exit
    Result = 4,   ///< worker->driver: finished grid point
    Stats = 5,    ///< worker->driver: end-of-session cache statistics
    Error = 6,    ///< worker->driver: fatal worker-side failure
    JobGroup = 7, ///< driver->worker: a trace group to run as one batch
    Event = 8,    ///< worker->driver: telemetry spans + unit records
};
static_assert(u8(Msg::Setup) == 1 && u8(Msg::Done) == 3 &&
                  u8(Msg::Result) == 4 && u8(Msg::Stats) == 5 &&
                  u8(Msg::Error) == 6 && u8(Msg::JobGroup) == 7 &&
                  u8(Msg::Event) == 8,
              "Msg values are wire format: never renumber them");

struct SetupMsg
{
    u32 version = protocolVersion;
    std::string storeDir;   ///< trace store directory ("" = no store)
    bool quiet = true;
    u32 workerId = 0;       ///< the worker's slot (Event telemetry)
    bool telemetry = false; ///< buffer spans/unit records and forward
                            ///< them in Event frames
};

/**
 * A trace group: points that replay the same trace (one or more), run
 * by the worker as one batched pass (runSweepUnit).  Answered with one
 * Result frame per entry, in entry order.
 */
struct JobGroupMsg
{
    std::vector<u32> indices; ///< submission-order slots, one per point
    std::vector<SweepPoint> points; ///< parallel to indices
};

struct ResultMsg
{
    u32 index = 0;
    u64 traceLength = 0;
    RunResult result;
};

struct StatsMsg
{
    u64 generations = 0; ///< traces streamed from the generator
    u64 diskLoads = 0;   ///< traces streamed from the store
    u64 storeSaves = 0;  ///< traces newly persisted to the store
};

/**
 * A batch of worker-side telemetry: buffered spans and per-unit timing
 * records, flushed after each unit and before the final Stats reply.
 * pid and workerId ride once per frame; the driver stamps them onto
 * each record when merging the fleet timeline.
 */
struct EventMsg
{
    u32 workerId = 0; ///< the worker's slot (SetupMsg.workerId)
    u64 pid = 0;      ///< worker process id (timeline track key)
    std::vector<telemetry::SpanRecord> spans;
    std::vector<telemetry::UnitRecord> units;
};

std::vector<u8> encode(const SetupMsg &m);
std::vector<u8> encode(const JobGroupMsg &m);
std::vector<u8> encodeDone();
std::vector<u8> encode(const ResultMsg &m);
std::vector<u8> encode(const StatsMsg &m);
std::vector<u8> encodeError(const std::string &what);
std::vector<u8> encode(const EventMsg &m);

/** @return the type of @p frame, or Msg(0) on an empty frame. */
Msg frameType(const std::vector<u8> &frame);

/** Decode the body of a frame whose type was already checked. */
bool decode(const std::vector<u8> &frame, SetupMsg &m);
bool decode(const std::vector<u8> &frame, JobGroupMsg &m);
bool decode(const std::vector<u8> &frame, ResultMsg &m);
bool decode(const std::vector<u8> &frame, StatsMsg &m);
bool decodeError(const std::vector<u8> &frame, std::string &what);
bool decode(const std::vector<u8> &frame, EventMsg &m);

} // namespace vmmx::dist

#endif // VMMX_DIST_PROTOCOL_HH
