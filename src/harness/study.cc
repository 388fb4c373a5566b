#include "harness/study.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "harness/harness_io.hh"

namespace vmmx
{

namespace
{

constexpr double nan = std::numeric_limits<double>::quiet_NaN();

/** Metrics rendered as integers rather than fixed-point decimals. */
bool
integralMetric(ReportSpec::Metric m)
{
    switch (m) {
      case ReportSpec::Metric::Cycles:
      case ReportSpec::Metric::Instructions:
      case ReportSpec::Metric::ScalarCycles:
      case ReportSpec::Metric::VectorCycles:
        return true;
      default:
        return false;
    }
}

std::string
metricCell(ReportSpec::Metric m, double v, int precision)
{
    if (std::isnan(v))
        return "-";
    if (integralMetric(m))
        return std::to_string(u64(v));
    return TextTable::num(v, precision);
}

/** First result replaying (@p workload, @p wname) on a (kind, way)
 *  machine; override sets are ignored (first match wins). */
const SweepResult *
findResult(const std::vector<SweepResult> &results,
           SweepPoint::Workload workload, const std::string &wname,
           SimdKind kind, unsigned way)
{
    for (const auto &r : results) {
        if (r.point.workload == workload && r.point.name == wname &&
            r.point.kind == kind && r.point.way == way)
            return &r;
    }
    return nullptr;
}

} // namespace

// ---- names ---------------------------------------------------------------

const char *
name(ReportSpec::Metric m)
{
    switch (m) {
      case ReportSpec::Metric::Cycles: return "cycles";
      case ReportSpec::Metric::Instructions: return "insts";
      case ReportSpec::Metric::Ipc: return "ipc";
      case ReportSpec::Metric::Speedup: return "speedup";
      case ReportSpec::Metric::ScalarCycles: return "scalar_cycles";
      case ReportSpec::Metric::VectorCycles: return "vector_cycles";
      case ReportSpec::Metric::VectorPct: return "vector_pct";
      case ReportSpec::Metric::ScalarOfBase: return "scalar_of_base";
      case ReportSpec::Metric::VectorOfBase: return "vector_of_base";
      case ReportSpec::Metric::TotalOfBase: return "total_of_base";
      case ReportSpec::Metric::SmemOfBase: return "smem_of_base";
      case ReportSpec::Metric::SarithOfBase: return "sarith_of_base";
      case ReportSpec::Metric::SctrlOfBase: return "sctrl_of_base";
      case ReportSpec::Metric::VmemOfBase: return "vmem_of_base";
      case ReportSpec::Metric::VarithOfBase: return "varith_of_base";
      case ReportSpec::Metric::InstsOfBase: return "insts_of_base";
      case ReportSpec::Metric::VectorInstsPct: return "vector_insts_pct";
    }
    panic("bad metric %d", int(m));
}

bool
parseMetric(const std::string &text, ReportSpec::Metric &m)
{
    for (unsigned i = 0; i < ReportSpec::numMetrics; ++i) {
        if (text == name(ReportSpec::Metric(i))) {
            m = ReportSpec::Metric(i);
            return true;
        }
    }
    return false;
}

const char *
name(ReportSpec::Layout l)
{
    switch (l) {
      case ReportSpec::Layout::Points: return "points";
      case ReportSpec::Layout::Pivot: return "pivot";
    }
    panic("bad layout %d", int(l));
}

bool
parseLayout(const std::string &text, ReportSpec::Layout &l)
{
    if (text == "points")
        l = ReportSpec::Layout::Points;
    else if (text == "pivot")
        l = ReportSpec::Layout::Pivot;
    else
        return false;
    return true;
}

// ---- derived metrics -----------------------------------------------------

double
metricValue(ReportSpec::Metric m, const SweepResult &r,
            const SweepResult *baseline)
{
    const RunStats &core = r.result.core;
    double scalar = double(core.scalarCycles);
    double vector = double(core.vectorCycles);
    double total = scalar + vector;
    // Figure 6 normalises to the baseline's scalar+vector total, not
    // its headline cycle count, so the *OfBase metrics do too.
    double baseTotal =
        baseline ? double(baseline->result.core.scalarCycles) +
                       double(baseline->result.core.vectorCycles)
                 : 0.0;
    double baseInsts =
        baseline ? double(baseline->result.core.instructions) : 0.0;
    auto ofBaseInsts = [&](u64 n) {
        return baseInsts ? 100.0 * double(n) / baseInsts : nan;
    };
    switch (m) {
      case ReportSpec::Metric::Cycles:
        return double(r.cycles());
      case ReportSpec::Metric::Instructions:
        return double(core.instructions);
      case ReportSpec::Metric::Ipc:
        return core.ipc();
      case ReportSpec::Metric::Speedup:
        return baseline && r.cycles()
                   ? double(baseline->cycles()) / double(r.cycles())
                   : nan;
      case ReportSpec::Metric::ScalarCycles:
        return scalar;
      case ReportSpec::Metric::VectorCycles:
        return vector;
      case ReportSpec::Metric::VectorPct:
        return total ? 100.0 * vector / total : nan;
      case ReportSpec::Metric::ScalarOfBase:
        return baseTotal ? 100.0 * scalar / baseTotal : nan;
      case ReportSpec::Metric::VectorOfBase:
        return baseTotal ? 100.0 * vector / baseTotal : nan;
      case ReportSpec::Metric::TotalOfBase:
        return baseTotal ? 100.0 * total / baseTotal : nan;
      case ReportSpec::Metric::SmemOfBase:
        return ofBaseInsts(core.classCount(InstClass::SMEM));
      case ReportSpec::Metric::SarithOfBase:
        return ofBaseInsts(core.classCount(InstClass::SARITH));
      case ReportSpec::Metric::SctrlOfBase:
        return ofBaseInsts(core.classCount(InstClass::SCTRL));
      case ReportSpec::Metric::VmemOfBase:
        return ofBaseInsts(core.classCount(InstClass::VMEM));
      case ReportSpec::Metric::VarithOfBase:
        return ofBaseInsts(core.classCount(InstClass::VARITH));
      case ReportSpec::Metric::InstsOfBase:
        return ofBaseInsts(core.instructions);
      case ReportSpec::Metric::VectorInstsPct:
        return core.instructions
                   ? 100.0 * double(core.vectorInsts()) /
                         double(core.instructions)
                   : nan;
    }
    panic("bad metric %d", int(m));
}

// ---- facade --------------------------------------------------------------

Study
Study::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open study spec '%s'", path.c_str());
    // read() (unlike streambuf insertion) sets badbit on an I/O error,
    // so a failing disk cannot silently hand us a truncated spec.
    std::string text;
    char buf[4096];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
        text.append(buf, size_t(in.gcount()));
    if (in.bad())
        fatal("error reading study spec '%s'", path.c_str());
    StudySpec spec;
    std::string err;
    if (!parseStudySpec(text, spec, err))
        fatal("%s: %s", path.c_str(), err.c_str());
    return Study(std::move(spec));
}

Study
Study::fromSpecText(const std::string &text)
{
    StudySpec spec;
    std::string err;
    if (!parseStudySpec(text, spec, err))
        fatal("study spec: %s", err.c_str());
    return Study(std::move(spec));
}

std::string
Study::specText() const
{
    return formatStudySpec(spec_);
}

std::vector<SweepPoint>
Study::points() const
{
    // One implicit empty override set keeps the cross product uniform.
    static const std::vector<Config> unmodified = {Config()};
    const std::vector<Config> &sets =
        spec_.overrideSets.empty() ? unmodified : spec_.overrideSets;

    // Build every machine of the grid once: an override the model cannot
    // run fails here with its key named, before any unit is scheduled
    // (so a processes run stops before it spawns a worker).
    for (SimdKind kind : spec_.kinds)
        for (unsigned way : spec_.ways)
            for (const Config &overrides : sets)
                makeMachine(kind, way, overrides);

    std::vector<SweepPoint> points;
    auto add = [&](SweepPoint::Workload workload, const std::string &name) {
        for (SimdKind kind : spec_.kinds)
            for (unsigned way : spec_.ways)
                for (const Config &overrides : sets)
                    points.push_back({workload, name, kind, way, overrides});
    };
    for (const auto &k : spec_.kernels)
        add(SweepPoint::Workload::Kernel, k);
    for (const auto &a : spec_.apps)
        add(SweepPoint::Workload::App, a);
    return points;
}

std::vector<SweepResult>
Study::run() const
{
    return runPoints(points(), spec_.exec);
}

const SweepResult *
Study::baselineFor(const ReportSpec &report,
                   const std::vector<SweepResult> &results,
                   const SweepResult &r)
{
    const SweepResult *fallback = nullptr;
    for (const auto &c : results) {
        if (c.point.workload != r.point.workload ||
            c.point.name != r.point.name ||
            c.point.kind != report.baselineKind ||
            c.point.way != report.baselineWay)
            continue;
        if (c.point.overrides == r.point.overrides)
            return &c;
        if (!fallback && c.point.overrides.keys().empty())
            fallback = &c;
    }
    return fallback;
}

void
Study::writeReport(std::ostream &os,
                   const std::vector<SweepResult> &results) const
{
    const ReportSpec &report = spec_.report;

    if (report.layout == ReportSpec::Layout::Points) {
        std::vector<std::string> header = {"point"};
        for (auto m : report.metrics)
            header.push_back(name(m));
        TextTable table(std::move(header));
        for (const auto &r : results) {
            const SweepResult *base = baselineFor(report, results, r);
            std::vector<std::string> row = {r.point.label()};
            for (auto m : report.metrics)
                row.push_back(metricCell(m, metricValue(m, r, base),
                                         report.precision));
            table.addRow(std::move(row));
        }
        table.print(os);
        return;
    }

    // Pivot: one table per workload, rows = widths, columns = flavours.
    // Cells are found by (workload, kind, way) alone, so with several
    // override sets only the first set's results are shown.
    if (spec_.overrideSets.size() > 1)
        warn("pivot report shows only the first of %zu override sets "
             "per cell; use layout = points for ablation grids",
             spec_.overrideSets.size());
    std::vector<std::pair<SweepPoint::Workload, std::string>> workloads;
    for (const auto &k : spec_.kernels)
        workloads.emplace_back(SweepPoint::Workload::Kernel, k);
    for (const auto &a : spec_.apps)
        workloads.emplace_back(SweepPoint::Workload::App, a);

    std::vector<std::string> header = {"config"};
    for (SimdKind kind : spec_.kinds)
        header.push_back(name(kind));

    auto cellValue = [&](const std::pair<SweepPoint::Workload,
                                         std::string> &w,
                         SimdKind kind, unsigned way) {
        const SweepResult *r =
            findResult(results, w.first, w.second, kind, way);
        if (!r)
            return nan;
        return metricValue(report.pivot, *r,
                           baselineFor(report, results, *r));
    };

    for (const auto &w : workloads) {
        os << w.second << ":\n";
        TextTable table(header);
        for (unsigned way : spec_.ways) {
            std::vector<std::string> row = {std::to_string(way) + "-way"};
            for (SimdKind kind : spec_.kinds)
                row.push_back(metricCell(report.pivot,
                                         cellValue(w, kind, way),
                                         report.precision));
            table.addRow(std::move(row));
        }
        table.print(os);
        os << '\n';
    }

    if (report.geomean && !workloads.empty()) {
        os << "average (geometric mean over the " << workloads.size()
           << " workloads):\n";
        TextTable avg(header);
        for (unsigned way : spec_.ways) {
            std::vector<std::string> row = {std::to_string(way) + "-way"};
            for (SimdKind kind : spec_.kinds) {
                double logSum = 0;
                size_t n = 0;
                for (const auto &w : workloads) {
                    double v = cellValue(w, kind, way);
                    if (!std::isnan(v) && v > 0) {
                        logSum += std::log(v);
                        ++n;
                    }
                }
                row.push_back(metricCell(
                    report.pivot, n ? std::exp(logSum / double(n)) : nan,
                    report.precision));
            }
            avg.addRow(std::move(row));
        }
        avg.print(os);
    }
}

} // namespace vmmx
