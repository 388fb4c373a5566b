/**
 * @file
 * Declarative experiment studies: every figure and table in the paper
 * is the same shape -- a (workload x SIMD flavour x width x
 * knob-override) grid replayed through the timing core and summarized
 * into a few derived metrics.  A StudySpec states that shape once:
 *
 *   grid axes        kernels/apps, flavours, machine widths, and
 *                    optional ablation override sets (cross product)
 *   ExecutionPolicy  which backend runs the grid and how (threads,
 *                    processes, store, journal)
 *   ReportSpec       which derived metrics to print -- speedup against
 *                    a named baseline configuration, cycle breakdown,
 *                    IPC -- so consumers stop plucking RunStats fields
 *                    by hand
 *
 * A Study is the facade over the spec: expand the grid to SweepPoints,
 * run it through runPoints() on the spec's backend (all backends are
 * bit-identical), and render the report.  Specs round-trip through a
 * text file format (Study::fromFile / Study::specText, codec in
 * harness/harness_io.*), so a figure is reproducible from a checked-in
 * spec via tools/vmmx_study instead of a bespoke binary; its --set
 * assignments (applySpecSetting) layer per-run knobs over the file.
 */

#ifndef VMMX_HARNESS_STUDY_HH
#define VMMX_HARNESS_STUDY_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/executor.hh"

namespace vmmx
{

/** Which derived metrics a study reports, and against what baseline. */
struct ReportSpec
{
    enum class Layout : u8
    {
        /** One row per grid point, one column per metric. */
        Points,
        /** One table per workload: rows = widths, columns = flavours,
         *  cells = the pivot metric (the Figure 4/5 shape). */
        Pivot,
    };

    enum class Metric : u8
    {
        Cycles,       ///< total execution time
        Instructions, ///< committed dynamic instructions
        Ipc,
        Speedup,      ///< baseline cycles / this point's cycles
        ScalarCycles, ///< cycles attributed to scalar regions
        VectorCycles, ///< cycles attributed to vector regions
        VectorPct,    ///< vector share of this point's own cycles, %
        /** Cycle breakdown normalised to the baseline's total (the
         *  Figure 6 shape): scalar / vector / total cycles as a
         *  percentage of the baseline configuration's cycles. */
        ScalarOfBase,
        VectorOfBase,
        TotalOfBase,
        /** Dynamic instruction mix normalised to the baseline's
         *  instruction count (the Figure 7 shape): each of the five
         *  instruction classes, and all instructions, as a percentage
         *  of the baseline configuration's committed instructions. */
        SmemOfBase,
        SarithOfBase,
        SctrlOfBase,
        VmemOfBase,
        VarithOfBase,
        InstsOfBase,
        VectorInstsPct, ///< vector share of this point's instructions, %
    };
    /** Number of Metric values (the last enumerator plus one). */
    static constexpr unsigned numMetrics =
        unsigned(Metric::VectorInstsPct) + 1;

    Layout layout = Layout::Points;
    /** Points-layout columns. */
    std::vector<Metric> metrics = {Metric::Cycles, Metric::Ipc};
    /** Pivot-layout cell metric. */
    Metric pivot = Metric::Speedup;
    /** The baseline configuration relative metrics compare against:
     *  the same workload replayed at (baselineKind, baselineWay) with
     *  no overrides. */
    SimdKind baselineKind = SimdKind::MMX64;
    unsigned baselineWay = 2;
    /** Pivot layout: append a geometric-mean table over workloads. */
    bool geomean = false;
    /** Decimal places of fractional metrics, at most maxPrecision. */
    int precision = 2;
    /** A double carries at most 17 significant decimal digits, and at
     *  17 places any cell below 10^45 fits TextTable::num's buffer. */
    static constexpr unsigned maxPrecision = 17;

    bool operator==(const ReportSpec &o) const = default;
};

/** Spec-file spelling of a metric ("cycles", "speedup", ...). */
const char *name(ReportSpec::Metric m);
bool parseMetric(const std::string &text, ReportSpec::Metric &m);
const char *name(ReportSpec::Layout l);
bool parseLayout(const std::string &text, ReportSpec::Layout &l);

/**
 * Value of @p m for one grid point.  @p baseline is the point's
 * baseline result (null when the grid has none); relative metrics
 * return NaN then, which the report renders as "-".
 */
double metricValue(ReportSpec::Metric m, const SweepResult &r,
                   const SweepResult *baseline);

/** The complete declarative description of one experiment. */
struct StudySpec
{
    std::string title;

    // ---- grid axes (cross product, in this order) --------------------
    std::vector<std::string> kernels;
    std::vector<std::string> apps;
    std::vector<SimdKind> kinds{allSimdKinds.begin(), allSimdKinds.end()};
    std::vector<unsigned> ways{2, 4, 8};
    /** Ablation override sets; each grid point is replicated once per
     *  set.  Empty = one unmodified machine per (workload, kind, way). */
    std::vector<Config> overrideSets;

    ExecutionPolicy exec = ExecutionPolicy::fromEnv();
    ReportSpec report;

    bool operator==(const StudySpec &o) const = default;
};

class Study
{
  public:
    Study() = default;
    explicit Study(StudySpec spec) : spec_(std::move(spec)) {}

    /** Parse a spec file; fatal on IO or parse errors (they name the
     *  offending line). */
    static Study fromFile(const std::string &path);
    /** Parse spec text; fatal on parse errors. */
    static Study fromSpecText(const std::string &text);

    StudySpec &spec() { return spec_; }
    const StudySpec &spec() const { return spec_; }

    /** The canonical spec-file text of this study (round-trips through
     *  fromSpecText bit-exactly). */
    std::string specText() const;

    /**
     * Expand the grid axes into submission-order SweepPoints:
     * workload-major (kernels then apps, spec order), then flavour,
     * then width, then override set -- so every point replaying one
     * trace is contiguous and the batched backends group maximally.
     */
    std::vector<SweepPoint> points() const;

    /** Run the grid through the backend the ExecutionPolicy names. */
    std::vector<SweepResult> run() const;

    /** Render the ReportSpec for @p results (as returned by run()). */
    void writeReport(std::ostream &os,
                     const std::vector<SweepResult> &results) const;

    /**
     * The baseline result of @p r under this spec's report: same
     * workload, (baselineKind, baselineWay), preferring the point with
     * @p r's own override set, else the override-free point.  Null when
     * the grid contains neither.
     */
    static const SweepResult *
    baselineFor(const ReportSpec &report,
                const std::vector<SweepResult> &results,
                const SweepResult &r);

  private:
    StudySpec spec_;
};

} // namespace vmmx

#endif // VMMX_HARNESS_STUDY_HH
