/**
 * @file
 * The trace repository: where a run gets the trace a TraceKey names.
 *
 * Trace generation is execution driven and deterministic in the
 * TraceKey, so a key names exactly one trace, and an optional
 * TraceStore keeps it on disk for other processes and later runs
 * (content-addressed files, delta+varint codec, checksummed).
 *
 * stream() is what the executors use: it hands the trace to a
 * TraceSink block by block -- read from the store, or generated and
 * written through to it -- and keeps nothing, so every trace group
 * replays its trace exactly once in bounded memory.
 *
 * raw() (and its app()/kernel() spellings) serves the
 * materialize-then-replay oracle (runSweepPoint) and direct library
 * users: one memo of whole InstRecord vectors, filled under one mutex
 * from the store, else the generator, so each key is built once per
 * repository however many threads ask.  The memo keeps what it built
 * until the repository goes away; a caller walking many traces bounds
 * its memory with one repository per trace.  decoded() decodes the
 * memoized trace afresh on every call and keeps no copy.
 */

#ifndef VMMX_TRACE_TRACE_REPO_HH
#define VMMX_TRACE_TRACE_REPO_HH

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "trace/decoded.hh"
#include "trace/trace_store.hh"

namespace vmmx
{

class TraceRepository
{
  public:
    /** Default memory-image size for kernel workloads (16 MiB): a
     *  virtual reservation (MemImage), committed on first write; no
     *  kernel allocates past 141 KiB of it. */
    static constexpr u32 kernelImageBytes = 16u << 20;
    /** Default memory-image size for application workloads (32 MiB),
     *  likewise reserved, not committed; no application writes past
     *  128 KiB of it. */
    static constexpr u32 appImageBytes = 32u << 20;
    /** Default input-generation seed (the one every study uses). */
    static constexpr u64 defaultSeed = 0xbeef;

    /**
     * @param store optional trace store (not owned; must outlive the
     *              repository).
     * The trailing arguments are what is left of the retired RAM
     * budgets: callers that still pass them pass 0, 0, and any other
     * value fails an assertion.
     */
    explicit TraceRepository(TraceStore *store = nullptr, u64 retiredRaw = 0,
                             u64 retiredDecoded = 0);
    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /** The shared per-process repository used by the sweep engine.
     *  Attaches a store iff $VMMX_TRACE_STORE is set. */
    static TraceRepository &instance();

    /** A memoized trace: a copyable holder of its shared_ptr. */
    class TraceHandle
    {
      public:
        explicit TraceHandle(SharedTrace t) : trace_(std::move(t)) {}

        const std::vector<InstRecord> &operator*() const { return *trace_; }
        const std::vector<InstRecord> *operator->() const
        {
            return trace_.get();
        }
        const std::vector<InstRecord> *get() const { return trace_.get(); }
        const SharedTrace &shared() const { return trace_; }

      private:
        SharedTrace trace_;
    };

    /** A decoded stream, owned by the handle. */
    class DecodedHandle
    {
      public:
        explicit DecodedHandle(DecodedStream s) : stream_(std::move(s)) {}

        const DecodedStream &stream() const { return stream_; }
        /** Dynamic trace length in records. */
        u64 records() const { return stream_.size(); }

      private:
        DecodedStream stream_;
    };

    // ---- whole traces (the raw() memo) -------------------------------
    /** Trace of a Table II kernel, built at most once per key. */
    TraceHandle kernel(const std::string &name, SimdKind kind,
                       u32 imageBytes = kernelImageBytes,
                       u64 seed = defaultSeed);
    /** Trace of one of the six applications, built at most once. */
    TraceHandle app(const std::string &name, SimdKind kind,
                    u32 imageBytes = appImageBytes, u64 seed = defaultSeed);
    /** The trace for @p key, memoized on first use: loaded from the
     *  store, else generated (and saved to the store). */
    TraceHandle raw(const TraceKey &key);

    /** decodeStream() of raw(@p key), run afresh on every call. */
    DecodedHandle decoded(const TraceKey &key);

    // ---- streaming ---------------------------------------------------
    /**
     * Hand the trace for @p key to @p sink in blocks without retaining
     * it: read from the store (a disk load), else generated (a
     * generation) -- written through to the store when one is attached,
     * published once complete.  For a trace replayed once: it never
     * reads the raw() memo, and each call streams the trace again.
     */
    void stream(const TraceKey &key, TraceSink &sink);

    // ---- statistics --------------------------------------------------
    struct TierStats
    {
        u64 hits = 0;  ///< lookups served from memory
        u64 fills = 0; ///< traces built into memory
        u64 bytes = 0; ///< bytes held in memory
    };

    /** The raw() memo's hits, fills and resident bytes. */
    TierStats rawStats() const;
    /** {0, decodes run, 0}: decoded() keeps nothing to hit. */
    TierStats decodedStats() const;
    /** Traces generated (memo fills and streams). */
    u64 generations() const { return generations_.load(); }
    /** Traces read from the store (memo fills and streams). */
    u64 diskLoads() const { return diskLoads_.load(); }

    /** Publish the counters as "repo.*" gauges in the process-wide
     *  telemetry registry. */
    void publishMetrics() const;

  private:
    TraceStore *store_ = nullptr;

    mutable std::mutex mu_;
    /** The raw() memo, content addressed by TraceKey; under mu_. */
    std::map<TraceKey, SharedTrace> raw_;
    u64 rawHits_ = 0;  ///< under mu_
    u64 rawBytes_ = 0; ///< under mu_

    std::atomic<u64> generations_{0};
    std::atomic<u64> diskLoads_{0};
    std::atomic<u64> decodes_{0};
};

/** Run the workload @p key names and return its whole trace. */
std::vector<InstRecord> generateTrace(const TraceKey &key);

/** Run the workload @p key names, streaming its trace into @p sink. */
void generateTrace(const TraceKey &key, TraceSink &sink);

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_REPO_HH
