/**
 * @file
 * Process-wide observability: a metrics registry and RAII span tracing,
 * behind the two exports vmmx_study writes (--metrics-json and
 * --trace-events).
 *
 * Everything here is *observational*: no simulation state is read or
 * written, so results are bit-identical with telemetry on or off (CI
 * asserts this).  When disabled -- the default -- every instrumentation
 * site compiles down to one relaxed atomic load and a branch; the
 * expensive parts (string formatting, locking, allocation) only run
 * behind enabled().
 *
 * Two pieces:
 *
 *   Registry  one name->value map of counters and gauges plus per-unit
 *             timing records, rendered by dumpJson() in deterministic
 *             (name-sorted) order.
 *
 *   Tracer    collects SpanRecords (TELEMETRY_SPAN RAII timers) and
 *             renders them as a Chrome trace-event JSON array that
 *             loads in chrome://tracing and Perfetto.  Worker-side
 *             spans are forwarded to the driver over the protocol's
 *             Event frame and merged into one timeline keyed by
 *             pid/workerId.
 */

#ifndef VMMX_COMMON_TELEMETRY_HH
#define VMMX_COMMON_TELEMETRY_HH

#include <atomic>
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

/** One executed sweep unit: the per-(trace, width) cost record of the
 *  metrics export's "units" section. */
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

/**
 * The process-wide metrics registry.  Counters and gauges share one
 * name->value map (no name is used as both): addCounter() accumulates,
 * setGauge() is last-write-wins.  Unit records accumulate into the
 * "units" section of dumpJson().  All orderings are deterministic
 * (sorted by name; units in record order).
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
    void clear();

    /** One JSON object, nested by the first dotted name component
     *  ("dist.respawns" -> {"dist": {"respawns": N}}), plus a "units"
     *  array of per-unit timing records.  Deterministically ordered. */
    void dumpJson(std::ostream &os) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, u64> values_;
    std::vector<UnitRecord> units_;
};

/** JSON string escaping for names/details/labels. */
std::string jsonEscape(const std::string &s);

} // namespace vmmx::telemetry

#endif // VMMX_COMMON_TELEMETRY_HH
