/**
 * @file
 * Unified tiered trace repository: one budget-aware home for the whole
 * trace lifecycle.
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
 * Tiers 1 and 2 share one LRU clock and one eviction pass: each tier
 * has its own byte budget (VMMX_TRACE_CACHE_BUDGET for raw,
 * VMMX_DECODED_CACHE_BUDGET for decoded, or the constructor arguments),
 * and when a tier runs over, the globally least-recently-used
 * *evictable* entry of that tier drops its bytes.  Raw copies are
 * evictable only when mirrored on disk (without a store the raw budget
 * is accounting-only); decoded streams are always evictable because
 * they re-materialize from tier 1.  Outstanding RAII pin handles
 * (TraceHandle, DecodedHandle) make an entry's tier ineligible, so
 * borrowed traces and decoded streams can never be dropped under a
 * consumer -- eviction only ever affects when memory is reclaimed.
 *
 * Thread model (inherited from the PR-1 cache): lookups take a short
 * registry lock to find or create the entry, then build under the
 * entry's own mutex so different keys materialize in parallel while
 * concurrent requests for the same key block on the first builder.
 * Eviction acquires entry mutexes only via try_lock while holding the
 * registry lock, which lookups never hold while acquiring an entry
 * mutex, so the two lock orders cannot deadlock.  Pins are taken under
 * the entry mutex and released without it; eviction re-checks the pin
 * count after winning the try_lock.
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
    /** Default input-generation seed (matches the figure benches). */
    static constexpr u64 defaultSeed = 0xbeef;

    /**
     * @param store optional persistent tier 0 (not owned; must outlive
     *              the repository).
     * @param rawBudgetBytes tier-1 RAM budget; 0 = unlimited.
     * @param decodedBudgetBytes tier-2 RAM budget; 0 = unlimited.
     */
    explicit TraceRepository(TraceStore *store = nullptr,
                             u64 rawBudgetBytes = rawBudgetFromEnv(),
                             u64 decodedBudgetBytes = decodedBudgetFromEnv());
    ~TraceRepository();
    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /** The shared per-process repository used by benches and the sweep
     *  engine.  Attaches a store iff $VMMX_TRACE_STORE is set. */
    static TraceRepository &instance();

    /** Budget from @p envVar; 0/unset/invalid (warns) = unlimited.
     *  (Compatibility shim over env::byteSize.) */
    static u64 budgetFromEnv(const char *envVar);
    static u64 rawBudgetFromEnv()
    {
        return budgetFromEnv("VMMX_TRACE_CACHE_BUDGET");
    }
    static u64 decodedBudgetFromEnv()
    {
        return budgetFromEnv("VMMX_DECODED_CACHE_BUDGET");
    }

    TraceStore *store() const { return store_; }

    void setDecodedBudget(u64 bytes) { decodedBudget_.store(bytes); }
    u64 rawBudget() const { return rawBudget_.load(); }

  private:
    struct Entry;

  public:
    /**
     * RAII pin on a raw (tier-1) trace: while alive, the repository
     * will not evict the entry's RAM copy, so the reference stays the
     * canonical resident object (stable pointers, no re-materialization
     * churn).  Movable, not copyable; a moved-from or default handle is
     * null.
     */
    class TraceHandle
    {
      public:
        TraceHandle() = default;
        TraceHandle(TraceHandle &&o) noexcept;
        TraceHandle &operator=(TraceHandle &&o) noexcept;
        TraceHandle(const TraceHandle &) = delete;
        TraceHandle &operator=(const TraceHandle &) = delete;
        ~TraceHandle();

        const std::vector<InstRecord> &operator*() const { return *trace_; }
        const std::vector<InstRecord> *operator->() const
        {
            return trace_.get();
        }
        const std::vector<InstRecord> *get() const { return trace_.get(); }
        /** The underlying shared_ptr (outlives the pin if copied out). */
        const SharedTrace &shared() const { return trace_; }
        explicit operator bool() const { return trace_ != nullptr; }

      private:
        friend class TraceRepository;
        TraceHandle(SharedTrace t, std::shared_ptr<Entry> e);
        void release();
        SharedTrace trace_;
        std::shared_ptr<Entry> entry_;
    };

    /**
     * RAII pin on a decoded (tier-2) stream.  Same contract as
     * TraceHandle: the pinned stream survives any budget pressure, and
     * the shared_ptr keeps the data alive even past clear().
     */
    class DecodedHandle
    {
      public:
        DecodedHandle() = default;
        DecodedHandle(DecodedHandle &&o) noexcept;
        DecodedHandle &operator=(DecodedHandle &&o) noexcept;
        DecodedHandle(const DecodedHandle &) = delete;
        DecodedHandle &operator=(const DecodedHandle &) = delete;
        ~DecodedHandle();

        const DecodedStream &stream() const { return *stream_; }
        const DecodedStream *get() const { return stream_.get(); }
        /** Dynamic trace length in records. */
        u64 records() const { return stream_->size(); }
        explicit operator bool() const { return stream_ != nullptr; }

      private:
        friend class TraceRepository;
        DecodedHandle(SharedDecoded s, std::shared_ptr<Entry> e);
        void release();
        SharedDecoded stream_;
        std::shared_ptr<Entry> entry_;
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
        u64 hits = 0;      ///< lookups served from this tier
        u64 fills = 0;     ///< entries materialized into this tier
        u64 evictions = 0; ///< resident copies dropped for the budget
        u64 bytes = 0;     ///< bytes currently resident in this tier
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

    /**
     * Drop every cached trace and decoded stream and reset the stats.
     * Only safe when no handles into this repository are still live;
     * intended for tests and benches using a private repository.
     */
    void clear();

  private:
    std::shared_ptr<Entry> entryFor(const TraceKey &key);
    /** Fill tier 1 of @p e (store, else generate); build mutex held. */
    SharedTrace materializeRaw(Entry &e);
    /** Stamp @p e's tier-1 (or tier-2) LRU clock and evict whatever the
     *  budgets no longer cover, never touching @p keep. */
    void touchRawAndEnforce(Entry *keep);
    void touchDecodedAndEnforce(Entry *keep);
    void enforceBudgets(Entry *keep);

    TraceStore *store_ = nullptr;
    std::atomic<u64> rawBudget_;
    std::atomic<u64> decodedBudget_;

    mutable std::mutex registryMu_;
    /** Generated traces, content addressed by TraceKey. */
    std::map<TraceKey, std::shared_ptr<Entry>> keyed_;

    std::atomic<u64> useClock_{0};
    std::atomic<u64> bytesRaw_{0};
    std::atomic<u64> bytesDecoded_{0};
    std::atomic<u64> generations_{0};
    std::atomic<u64> diskLoads_{0};
    std::atomic<u64> decodes_{0};
    std::atomic<u64> rawHits_{0};
    std::atomic<u64> decodedHits_{0};
    std::atomic<u64> rawEvictions_{0};
    std::atomic<u64> decodedEvictions_{0};
};

/** Run the workload @p key names and return its whole trace. */
std::vector<InstRecord> generateTrace(const TraceKey &key);

/** Run the workload @p key names, streaming its trace into @p sink. */
void generateTrace(const TraceKey &key, TraceSink &sink);

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_REPO_HH
