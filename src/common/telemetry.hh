/**
 * @file
 * Process-wide observability: a metrics registry, RAII span tracing,
 * and rate-limited run progress -- the measurement substrate for the
 * ROADMAP's cost-model scheduler, TCP fleet, and vmmx_studyd rungs.
 *
 * Everything here is *observational*: no simulation state is read or
 * written, so results are bit-identical with telemetry on or off (CI
 * asserts this).  When disabled -- the default -- every instrumentation
 * site compiles down to one relaxed atomic load and a branch; the
 * expensive parts (string formatting, locking, allocation) only run
 * behind enabled().
 *
 * Three pieces:
 *
 *   Registry  federates named counters/gauges and per-unit timing
 *             records behind one dumpText()/dumpJson() with
 *             deterministic (name-sorted) ordering and snapshot
 *             support.
 *
 *   Tracer    collects SpanRecords (TELEMETRY_SPAN RAII timers) and
 *             renders them as a Chrome trace-event JSON array that
 *             loads in chrome://tracing and Perfetto.  Worker-side
 *             spans are forwarded to the driver over the protocol's
 *             Event frame and merged into one timeline keyed by
 *             pid/workerId.
 *
 *   Progress  rate-limited live progress (points done/total, points/s,
 *             ETA) to stderr or as streamed JSONL events -- the forward
 *             substrate for vmmx_studyd's streamed events.
 */

#ifndef VMMX_COMMON_TELEMETRY_HH
#define VMMX_COMMON_TELEMETRY_HH

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vmmx::telemetry
{

// ---- enable flag ---------------------------------------------------------

namespace detail
{
extern std::atomic<bool> gEnabled;
}

/** The disabled-mode fast path: one relaxed load and a branch.  Off
 *  until a tool with --trace-events/--metrics-json flips it via
 *  setEnabled(); distributed drivers forward it to workers in the
 *  Setup frame. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

void setEnabled(bool on);

/** Monotonic nanoseconds (CLOCK_MONOTONIC; comparable across the
 *  processes of one host, which is what the merged timeline needs). */
u64 nowNs();

/** Which sanitizer this binary was built with ("address", "undefined",
 *  "thread"), or "none".  Stamped into metrics dumps and perf records
 *  so sanitizer-build numbers are never mistaken for real timings. */
const char *sanitizerName();

/** Peak resident set size of this process so far, in KiB (getrusage
 *  ru_maxrss).  Stamped into the host section of metrics dumps: memory
 *  is half of where the simulator's cost goes. */
u64 peakRssKiB();

// ---- span tracing --------------------------------------------------------

/** One completed scoped timer.  pid/workerId key the merged timeline:
 *  local spans carry this process's pid and workerId -1; spans
 *  forwarded over the Event frame carry the worker's. */
struct SpanRecord
{
    std::string name;   ///< phase ("decode", "simulate", ...)
    std::string detail; ///< optional argument (trace label, unit id...)
    u64 startNs = 0;    ///< nowNs() at construction
    u64 durNs = 0;      ///< duration
    u64 pid = 0;        ///< originating process
    u32 tid = 0;        ///< per-process thread ordinal
    s32 workerId = -1;  ///< dist spawn ordinal; -1 = driver/local
};

/** Global span buffer; workers drain it into Event frames, drivers and
 *  in-process runs drain it into writeTraceEvents(). */
class Tracer
{
  public:
    static Tracer &instance();

    void record(SpanRecord &&rec);
    /** Remove and return every buffered span (worker-side flush). */
    std::vector<SpanRecord> drain();
    /** Buffered span count (tests). */
    size_t size() const;
    void clear();

    /** Label a pid's track in the rendered timeline ("driver",
     *  "worker0/spawn2", ...). */
    void setProcessName(u64 pid, const std::string &name);

    /**
     * Render every buffered span as a Chrome trace-event JSON array
     * (complete "X" events plus "M" process_name metadata), sorted by
     * (pid, start) with timestamps rebased to the earliest span.  Loads
     * directly in chrome://tracing and ui.perfetto.dev.
     */
    void writeTraceEvents(std::ostream &os) const;

  private:
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::map<u64, std::string> processNames_;
};

/** RAII scoped timer.  Construction and destruction are no-ops beyond
 *  the enabled() branch when telemetry is off; pass expensive detail
 *  strings as `enabled() ? mk() : std::string()` at the call site. */
class Span
{
  public:
    explicit Span(const char *name, std::string detail = std::string())
    {
        if (enabled())
            begin(name, std::move(detail));
    }
    ~Span()
    {
        if (live_)
            end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void begin(const char *name, std::string &&detail);
    void end();

    bool live_ = false;
    SpanRecord rec_;
};

#define VMMX_SPAN_CAT2(a, b) a##b
#define VMMX_SPAN_CAT(a, b) VMMX_SPAN_CAT2(a, b)
/** TELEMETRY_SPAN("decode", detailString) -- a scoped timer covering
 *  the rest of the enclosing block. */
#define TELEMETRY_SPAN(...)                                               \
    ::vmmx::telemetry::Span VMMX_SPAN_CAT(telemetrySpan_, __LINE__)(      \
        __VA_ARGS__)

// ---- metrics registry ----------------------------------------------------

/** One executed sweep unit: the per-(trace, width) cost record the
 *  future cost-model scheduler trains on. */
struct UnitRecord
{
    u64 traceHash = 0;  ///< FNV-1a of the lead point's trace identity
    std::string label;  ///< lead point label (human-readable key)
    u32 points = 0;     ///< configs batched into the unit (its width)
    u64 records = 0;    ///< trace length replayed
    u64 wallNs = 0;     ///< wall-clock of the whole unit
    s32 workerId = -1;  ///< dist spawn ordinal; -1 = driver/local
    std::string simd;   ///< step path (scalar = context-major, avx2, avx512)

    double pointsPerSec() const
    {
        return wallNs ? double(points) * 1e9 / double(wallNs) : 0.0;
    }
};

/** Flattened name->value view of the registry at one instant. */
struct MetricsSnapshot
{
    std::map<std::string, u64> values;
};

/**
 * The process-wide metrics registry.  Counters accumulate, gauges are
 * last-write-wins, and unit records accumulate into the "units" section
 * of dumpJson().  All orderings are deterministic (sorted by name;
 * units in record order).
 */
class Registry
{
  public:
    static Registry &instance();

    void addCounter(const std::string &name, u64 delta);
    void setGauge(const std::string &name, u64 value);
    void addUnit(UnitRecord &&rec);
    /** Remove and return every buffered unit record (worker flush). */
    std::vector<UnitRecord> drainUnits();
    std::vector<UnitRecord> units() const;
    void clear();

    /** Flattened counters + gauges, sorted by name. */
    MetricsSnapshot snapshot() const;

    /** "name value" lines, sorted by name, then one line per unit. */
    void dumpText(std::ostream &os) const;
    /** One JSON object, nested by the first dotted name component
     *  ("dist.respawns" -> {"dist": {"respawns": N}}), plus a "units"
     *  array of per-unit timing records.  Deterministically ordered. */
    void dumpJson(std::ostream &os) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, u64> counters_;
    std::map<std::string, u64> gauges_;
    std::vector<UnitRecord> units_;
};

/** JSON string escaping for names/details/labels. */
std::string jsonEscape(const std::string &s);

// ---- live progress -------------------------------------------------------

enum class ProgressMode : u8
{
    Off,    ///< the default: Progress methods return immediately
    Stderr, ///< human-readable rate-limited lines on stderr
    Jsonl,  ///< one JSON event per line on the configured stream
};

/** Select the process-wide progress mode; @p stream (Jsonl mode) stays
 *  owned by the caller and defaults to stderr. */
void setProgress(ProgressMode mode, std::FILE *stream = nullptr);
ProgressMode progressMode();

/**
 * Rate-limited progress for one run.  update() emits at most every
 * ~200ms; finish() always emits.  Thread-safe: pool workers may tick
 * concurrently.  All methods are no-ops in ProgressMode::Off.
 */
class Progress
{
  public:
    Progress(std::string what, u64 total);

    /** @p done is absolute (points completed so far); @p extra is an
     *  optional free-form suffix (per-worker in-flight counts...). */
    void update(u64 done, const std::string &extra = std::string());
    void finish(u64 done);

  private:
    void emit(u64 done, const std::string &extra, bool final);

    std::mutex mu_;
    std::string what_;
    u64 total_ = 0;
    u64 startNs_ = 0;
    u64 lastEmitNs_ = 0;
};

} // namespace vmmx::telemetry

#endif // VMMX_COMMON_TELEMETRY_HH
