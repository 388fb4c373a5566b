/**
 * @file
 * Unified trace repository: one home for the whole trace lifecycle.
 *
 *   tier 0  disk     content-addressed TraceStore files (delta+varint
 *                    codec, checksummed, shared across processes)
 *   tier 1  raw      InstRecord vectors in RAM (SharedTrace)
 *   tier 2  decoded  DecodedStream blocks in RAM (~1.3x the raw bytes),
 *                    so the per-record decode is paid once per process,
 *                    not once per sweep group
 *
 * stream() bypasses the RAM tiers: it hands a trace replayed exactly
 * once to a TraceSink block by block -- read from tier 0, or generated
 * and written through to it -- and keeps nothing.  That is how the
 * executors replay every trace group, so no executor fills tier 1; the
 * RAM tiers serve the materialize-then-replay oracle (runSweepPoint)
 * and direct library users.
 *
 * Trace generation is execution driven and deterministic in the
 * TraceKey, so every tier is content addressed by construction: a key
 * maps to exactly one raw trace and exactly one decoded stream, and a
 * miss in one tier fills from the tier below (decoded <- raw <- disk <-
 * generate).
 *
 * Tiers 1 and 2 are plain memos: a copy, once built, stays until
 * clear(), and a handle is a copyable holder of its shared_ptr.
 * Lookups take a short registry lock to find or create the entry, then
 * build under the entry's own mutex, so each key builds once while
 * different keys build in parallel and concurrent requests for one key
 * wait for the first builder.
 */

#ifndef VMMX_TRACE_TRACE_REPO_HH
#define VMMX_TRACE_TRACE_REPO_HH

#include <atomic>
#include <map>
#include <memory>
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
     * @param store optional persistent tier 0 (not owned; must outlive
     *              the repository).
     * The trailing arguments are what is left of the retired RAM
     * budgets: callers that still pass them pass 0, 0, and any other
     * value fails an assertion.
     */
    explicit TraceRepository(TraceStore *store = nullptr, u64 retiredRaw = 0,
                             u64 retiredDecoded = 0);
    ~TraceRepository();
    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /** The shared per-process repository used by the sweep engine.
     *  Attaches a store iff $VMMX_TRACE_STORE is set. */
    static TraceRepository &instance();

    TraceStore *store() const { return store_; }

    /** A raw (tier-1) trace: a copyable holder of its shared_ptr. */
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

    /** A decoded (tier-2) stream: a copyable holder of its shared_ptr. */
    class DecodedHandle
    {
      public:
        explicit DecodedHandle(SharedDecoded s) : stream_(std::move(s)) {}

        const DecodedStream &stream() const { return *stream_; }
        const DecodedStream *get() const { return stream_.get(); }
        /** Dynamic trace length in records. */
        u64 records() const { return stream_->size(); }

      private:
        SharedDecoded stream_;
    };

    // ---- tier-1 lookups (raw InstRecord traces) ----------------------
    /** Trace of a Table II kernel, built at most once per key. */
    TraceHandle kernel(const std::string &name, SimdKind kind,
                       u32 imageBytes = kernelImageBytes,
                       u64 seed = defaultSeed);
    /** Trace of one of the six applications, built at most once. */
    TraceHandle app(const std::string &name, SimdKind kind,
                    u32 imageBytes = appImageBytes, u64 seed = defaultSeed);
    /** Generic keyed lookup (distributed workers). */
    TraceHandle raw(const TraceKey &key);

    // ---- streaming (no RAM tier) -------------------------------------
    /**
     * Hand the trace for @p key to @p sink in blocks without retaining
     * it: replayed in place from a resident tier-1 copy if there is one
     * (a raw hit), else read from the store (a disk load), else
     * generated (a generation) -- written through to the store when one
     * is attached, published once complete.  For a trace replayed once;
     * each call streams it again.
     */
    void stream(const TraceKey &key, TraceSink &sink);

    // ---- tier-2 lookups (decoded streams) ----------------------------
    /** Decoded stream for @p key; fills through raw/disk/generate. */
    DecodedHandle decoded(const TraceKey &key);

    // ---- statistics --------------------------------------------------
    struct TierStats
    {
        u64 hits = 0;  ///< lookups served from this tier
        u64 fills = 0; ///< entries materialized into this tier
        u64 bytes = 0; ///< bytes currently resident in this tier
    };

    TierStats rawStats() const;
    TierStats decodedStats() const;
    /** Traces actually generated (tier-1 fills and streams). */
    u64 generations() const { return generations_.load(); }
    /** Traces read from the on-disk store (tier-1 fills and streams). */
    u64 diskLoads() const { return diskLoads_.load(); }
    /** Tier-2 fills (full-trace decodes). */
    u64 decodes() const { return decodes_.load(); }
    /** Number of distinct traces currently known across all tiers. */
    size_t size() const;

    /** Publish the per-tier counters as "repo.*" gauges in the
     *  process-wide telemetry registry. */
    void publishMetrics() const;

    /** Drop every cached trace and decoded stream and reset the stats;
     *  handles already returned keep their data alive. */
    void clear();

  private:
    struct Entry;

    std::shared_ptr<Entry> entryFor(const TraceKey &key);
    /** Fill tier 1 of @p e (store, else generate); build mutex held. */
    void materializeRaw(Entry &e);

    TraceStore *store_ = nullptr;

    mutable std::mutex registryMu_;
    /** Generated traces, content addressed by TraceKey. */
    std::map<TraceKey, std::shared_ptr<Entry>> keyed_;

    std::atomic<u64> bytesRaw_{0};
    std::atomic<u64> bytesDecoded_{0};
    std::atomic<u64> generations_{0};
    std::atomic<u64> diskLoads_{0};
    std::atomic<u64> rawFills_{0};
    std::atomic<u64> decodes_{0};
    std::atomic<u64> rawHits_{0};
    std::atomic<u64> decodedHits_{0};
};

/** Run the workload @p key names and return its whole trace. */
std::vector<InstRecord> generateTrace(const TraceKey &key);

/** Run the workload @p key names, streaming its trace into @p sink. */
void generateTrace(const TraceKey &key, TraceSink &sink);

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_REPO_HH
