#include "harness/harness_io.hh"

#include <map>
#include <sstream>

#include "apps/app.hh"
#include "common/env.hh"
#include "dist/driver.hh"
#include "kernels/kernel.hh"

namespace vmmx
{

// ---- codec lockstep guards ----------------------------------------------
// The wire layer must serialize every field of these structs, and the
// distributed determinism guarantee rests on that: a field added to
// RunStats or RunResult but not to the codecs below would silently
// decode as zero on the driver side.  The struct sizes below are the
// serialized field counts times the field width (every member is a u64
// or an array of u64, so there is no padding); a new field trips the
// assert until the matching serialize()/deserialize() pair -- and the
// count here -- are updated together.
constexpr size_t runStatsWireFields = 10 + numInstClasses;
static_assert(sizeof(RunStats) == runStatsWireFields * sizeof(u64),
              "RunStats gained or lost a field: update serialize()/"
              "deserialize() and runStatsWireFields in lockstep");

constexpr size_t runResultOwnWireFields = 6; // memory-system counters
static_assert(sizeof(RunResult) ==
                  sizeof(RunStats) + runResultOwnWireFields * sizeof(u64),
              "RunResult gained or lost a field: update serialize()/"
              "deserialize() and runResultOwnWireFields in lockstep");

// Config serializes its whole key/value map, so any new state would be a
// new member next to it -- which this size check catches.
static_assert(sizeof(Config) == sizeof(std::map<std::string, std::string>),
              "Config gained a member the key/value codec cannot see: "
              "extend serialize()/deserialize() and this guard");

// ExecutionPolicy and DistStats have members of mixed widths, so their
// guards are member-for-member mirror structs: identical member types in
// identical order guarantee identical sizeof, and a field added to the
// real struct but not here (and not to its codec/report) trips the
// assert.  ExecutionPolicy's declarative fields round-trip through the
// [exec] spec section (formatStudySpec/parseStudySpec below) and its
// runtime wiring is read by the executors and dist::runSweep; DistStats
// feeds its own summary() and dist::publishMetrics().
namespace
{

struct ExecutionPolicyMirror
{
    ExecutionPolicy::Backend backend;
    unsigned threads;
    unsigned processes;
    std::string storeDir;
    std::string journalPath;
    TraceRepository *repo;
    dist::DistStats *distStats;
    std::string execPath;
};

struct SweepPointMirror
{
    SweepPoint::Workload workload;
    std::string name;
    SimdKind kind;
    unsigned way;
    Config overrides;
};

struct DistStatsMirror
{
    u64 generations, hits, diskLoads, storeSaves, bytesResident, decodes,
        decodedHits, decodedBytes;
    u64 jobsRun, jobsResumed, groupsRun;
    unsigned workers;
    u64 journalSkipped;
    u64 steals, respawns, retries;
    std::vector<u32> quarantinedPoints;
    u64 abnormalExits;
};

} // namespace

static_assert(sizeof(SweepPoint) == sizeof(SweepPointMirror),
              "SweepPoint gained or lost a field: update serialize()/"
              "deserialize(), label(), and this mirror in lockstep");

static_assert(sizeof(ExecutionPolicy) == sizeof(ExecutionPolicyMirror),
              "ExecutionPolicy gained or lost a field: update the [exec] "
              "spec codec, operator==, dist::runSweep, and this mirror "
              "in lockstep");

static_assert(sizeof(dist::DistStats) == sizeof(DistStatsMirror),
              "DistStats gained or lost a field: update summary(), "
              "publishMetrics(), and this mirror in lockstep");

void
serialize(wire::Writer &w, const Config &c)
{
    auto keys = c.keys();
    w.varint(keys.size());
    for (const auto &k : keys) {
        w.str(k);
        w.str(c.getString(k));
    }
}

bool
deserialize(wire::Reader &r, Config &c)
{
    c = Config();
    u64 n = r.varint();
    if (n > r.remaining())
        return false;
    for (u64 i = 0; i < n; ++i) {
        std::string k = r.str();
        std::string v = r.str();
        if (!r.ok())
            return false;
        c.set(k, v);
    }
    return r.ok();
}

void
serialize(wire::Writer &w, const RunStats &s)
{
    w.varint(s.cycles);
    w.varint(s.instructions);
    for (u64 v : s.instByClass)
        w.varint(v);
    w.varint(s.scalarCycles);
    w.varint(s.vectorCycles);
    w.varint(s.branches);
    w.varint(s.mispredicts);
    w.varint(s.memOps);
    w.varint(s.renameStallRegs);
    w.varint(s.renameStallRob);
    w.varint(s.renameStallIq);
}

bool
deserialize(wire::Reader &r, RunStats &s)
{
    s.cycles = r.varint();
    s.instructions = r.varint();
    for (u64 &v : s.instByClass)
        v = r.varint();
    s.scalarCycles = r.varint();
    s.vectorCycles = r.varint();
    s.branches = r.varint();
    s.mispredicts = r.varint();
    s.memOps = r.varint();
    s.renameStallRegs = r.varint();
    s.renameStallRob = r.varint();
    s.renameStallIq = r.varint();
    return r.ok();
}

void
serialize(wire::Writer &w, const RunResult &res)
{
    serialize(w, res.core);
    w.varint(res.l1Hits);
    w.varint(res.l1Misses);
    w.varint(res.l2Hits);
    w.varint(res.l2Misses);
    w.varint(res.vecAccesses);
    w.varint(res.cohInvalidations);
}

bool
deserialize(wire::Reader &r, RunResult &res)
{
    if (!deserialize(r, res.core))
        return false;
    res.l1Hits = r.varint();
    res.l1Misses = r.varint();
    res.l2Hits = r.varint();
    res.l2Misses = r.varint();
    res.vecAccesses = r.varint();
    res.cohInvalidations = r.varint();
    return r.ok();
}

void
serialize(wire::Writer &w, const SweepPoint &p)
{
    w.byte(static_cast<u8>(p.workload));
    w.str(p.name);
    w.byte(static_cast<u8>(p.kind));
    w.varint(p.way);
    serialize(w, p.overrides);
    // The byte that flagged a shipped trace up to protocol v8, now a
    // constant 0: gridSignature() hashes these bytes, and dropping it
    // would orphan every journal on disk.
    w.byte(0);
}

bool
deserialize(wire::Reader &r, SweepPoint &p)
{
    u8 workload = r.byte();
    if (workload > static_cast<u8>(SweepPoint::Workload::App))
        return false;
    p.workload = static_cast<SweepPoint::Workload>(workload);
    p.name = r.str();
    u8 kind = r.byte();
    if (kind > static_cast<u8>(SimdKind::VMMX128))
        return false;
    p.kind = static_cast<SimdKind>(kind);
    p.way = unsigned(r.varint());
    if (!deserialize(r, p.overrides))
        return false;
    return r.byte() == 0 && r.ok();
}

// ---- study spec text codec -----------------------------------------------

namespace
{

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string item;
    while (std::getline(in, item, ','))
        if (!trim(item).empty())
            out.push_back(trim(item));
    return out;
}

template <typename T, typename F>
std::string
joinNames(const std::vector<T> &items, F &&nameOf)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ",";
        out += nameOf(items[i]);
    }
    return out;
}

/** Non-fatal SimdKind lookup (parseSimdKind aborts on junk). */
bool
lookupSimdKind(const std::string &text, SimdKind &kind)
{
    for (SimdKind k : allSimdKinds) {
        if (text == name(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

std::string
flagText(bool v)
{
    return v ? "on" : "off";
}

/**
 * Strings embedded in spec text must survive the line-based format: a
 * newline would end the line (or open a bogus section), edge
 * whitespace would be trimmed away on re-parse, and a comma in a list
 * item would be taken for a separator -- each silently breaking the
 * parse(format(spec)) == spec contract, so formatting such a spec is a
 * fatal user error instead.
 */
void
checkSpecValue(const char *what, const std::string &s, bool listItem)
{
    if (s.find('\n') != std::string::npos ||
        s.find('\r') != std::string::npos || s != trim(s) ||
        (listItem && s.find(',') != std::string::npos))
        fatal("study spec text cannot represent %s '%s' (newlines, edge "
              "whitespace%s do not survive the key=value format)",
              what, s.c_str(), listItem ? ", commas" : "");
}

} // namespace

std::string
formatStudySpec(const StudySpec &spec)
{
    std::ostringstream os;
    auto listItem = [](const char *what) {
        return [what](const std::string &s) {
            checkSpecValue(what, s, /*listItem=*/true);
            return s;
        };
    };
    checkSpecValue("title", spec.title, /*listItem=*/false);
    os << "# vmmx study spec\n";
    os << "title = " << spec.title << "\n";
    os << "\n[grid]\n";
    os << "kernels = " << joinNames(spec.kernels, listItem("kernel name"))
       << "\n";
    os << "apps = " << joinNames(spec.apps, listItem("app name")) << "\n";
    os << "kinds = "
       << joinNames(spec.kinds, [](SimdKind k) { return name(k); }) << "\n";
    os << "ways = "
       << joinNames(spec.ways,
                    [](unsigned w) { return std::to_string(w); })
       << "\n";
    for (const Config &set : spec.overrideSets) {
        os << "override = "
           << joinNames(set.keys(),
                        [&](const std::string &k) {
                            // The parser would reject an unknown knob.
                            if (std::string what = unknownKnob(k);
                                !what.empty())
                                fatal("study spec: %s", what.c_str());
                            checkSpecValue("override value",
                                           set.getString(k),
                                           /*listItem=*/true);
                            return k + "=" + set.getString(k);
                        })
           << "\n";
    }

    const ExecutionPolicy &e = spec.exec;
    os << "\n[exec]\n";
    os << "backend = " << name(e.backend) << "\n";
    os << "threads = " << e.threads << "\n";
    os << "processes = " << e.processes << "\n";
    checkSpecValue("store directory", e.storeDir, /*listItem=*/false);
    os << "store = " << e.storeDir << "\n";
    checkSpecValue("journal path", e.journalPath, /*listItem=*/false);
    os << "journal = " << e.journalPath << "\n";

    const ReportSpec &r = spec.report;
    os << "\n[report]\n";
    os << "layout = " << name(r.layout) << "\n";
    os << "metrics = "
       << joinNames(r.metrics, [](ReportSpec::Metric m) { return name(m); })
       << "\n";
    os << "pivot_metric = " << name(r.pivot) << "\n";
    os << "baseline = " << name(r.baselineKind) << "/" << r.baselineWay
       << "\n";
    os << "geomean = " << flagText(r.geomean) << "\n";
    os << "precision = " << r.precision << "\n";
    return os.str();
}

namespace
{

bool
knownSection(const std::string &section)
{
    return section == "grid" || section == "exec" || section == "report";
}

/**
 * Set @p key of @p section ("" = the top level) to @p value with the
 * validation of a spec line.  @return "" on success, else what is wrong
 * with the line.
 */
std::string
setSpecKey(StudySpec &spec, const std::string &section,
           const std::string &key, const std::string &value)
{
    auto wantFlag = [&](bool &out) {
        return env::parseFlag(value.c_str(), out)
                   ? std::string()
                   : "'" + key + "' wants on/off, got '" + value + "'";
    };
    auto wantNumber = [&](unsigned &out) {
        return env::parseUnsigned(value.c_str(), out)
                   ? std::string()
                   : "'" + key + "' wants a number, got '" + value + "'";
    };
    // The caller trims the value's edges, a CRLF line's CR included; a
    // CR inside it would parse but could not be written back.
    if (value.find('\r') != std::string::npos)
        return "'" + key + "' holds a carriage return";

    if (section.empty()) {
        if (key != "title")
            return "unknown top-level key '" + key + "'";
        spec.title = value;
        return "";
    }

    if (section == "grid") {
        // A workload name is checked here, not when its first point runs.
        auto workloads = [&](const char *what,
                             const std::vector<std::string> &known,
                             std::vector<std::string> &out) {
            std::vector<std::string> names = splitList(value);
            for (const auto &n : names)
                if (std::string bad = unknownName(what, n, known);
                    !bad.empty())
                    return bad;
            out = std::move(names);
            return std::string();
        };
        if (key == "kernels") {
            return workloads("kernel", kernelNames(), spec.kernels);
        } else if (key == "apps") {
            return workloads("app", appNames(), spec.apps);
        } else if (key == "kinds") {
            spec.kinds.clear();
            for (const auto &k : splitList(value)) {
                SimdKind kind;
                if (!lookupSimdKind(k, kind))
                    return "unknown SIMD flavour '" + k + "'";
                spec.kinds.push_back(kind);
            }
            if (spec.kinds.empty())
                return "'kinds' wants at least one SIMD flavour";
        } else if (key == "ways") {
            spec.ways.clear();
            for (const auto &w : splitList(value)) {
                unsigned way = 0;
                if (!env::parseUnsigned(w.c_str(), way) || way == 0)
                    return "bad machine width '" + w + "'";
                spec.ways.push_back(way);
            }
            if (spec.ways.empty())
                return "'ways' wants at least one machine width";
        } else if (key == "override") {
            Config set;
            for (const auto &assignment : splitList(value)) {
                size_t aeq = assignment.find('=');
                if (aeq == std::string::npos || aeq == 0)
                    return "override wants comma-separated knob=value "
                           "pairs, got '" + assignment + "'";
                std::string knob = trim(assignment.substr(0, aeq));
                if (std::string what = unknownKnob(knob); !what.empty())
                    return what;
                set.set(knob, trim(assignment.substr(aeq + 1)));
            }
            spec.overrideSets.push_back(std::move(set));
        } else {
            return "unknown [grid] key '" + key + "'";
        }
        return "";
    }

    if (section == "exec") {
        ExecutionPolicy &e = spec.exec;
        if (key == "backend") {
            if (!parseBackend(value, e.backend))
                return "unknown backend '" + value +
                       "' (want serial/threads/processes)";
            return "";
        }
        if (key == "threads")
            return wantNumber(e.threads);
        if (key == "processes") {
            if (!env::parseUnsigned(value.c_str(), e.processes) ||
                e.processes == 0)
                return "'processes' must be >= 1";
            return "";
        }
        if (key == "store") {
            e.storeDir = value;
            return "";
        }
        if (key == "journal") {
            e.journalPath = value;
            return "";
        }
        return "unknown [exec] key '" + key + "'";
    }

    ReportSpec &r = spec.report;
    if (key == "layout") {
        if (!parseLayout(value, r.layout))
            return "unknown layout '" + value + "' (want points/pivot)";
    } else if (key == "metrics") {
        r.metrics.clear();
        for (const auto &m : splitList(value)) {
            ReportSpec::Metric metric;
            if (!parseMetric(m, metric))
                return "unknown metric '" + m + "'";
            r.metrics.push_back(metric);
        }
    } else if (key == "pivot_metric") {
        if (!parseMetric(value, r.pivot))
            return "unknown metric '" + value + "'";
    } else if (key == "baseline") {
        size_t slash = value.find('/');
        if (slash == std::string::npos)
            return "baseline wants kind/way, e.g. mmx64/2";
        if (!lookupSimdKind(value.substr(0, slash), r.baselineKind))
            return "unknown SIMD flavour '" + value.substr(0, slash) + "'";
        // Only the Table III machines exist; any other width would
        // parse here and then match no point, leaving every relative
        // metric blank.
        if (!env::parseUnsigned(value.substr(slash + 1).c_str(),
                                r.baselineWay) ||
            (r.baselineWay != 2 && r.baselineWay != 4 && r.baselineWay != 8))
            return "bad baseline width '" + value.substr(slash + 1) +
                   "' (want 2, 4 or 8)";
    } else if (key == "geomean") {
        return wantFlag(r.geomean);
    } else if (key == "precision") {
        unsigned precision = 0;
        if (!env::parseUnsigned(value.c_str(), precision) ||
            precision > ReportSpec::maxPrecision)
            return "'precision' wants 0 to " +
                   std::to_string(ReportSpec::maxPrecision) + ", got '" +
                   value + "'";
        r.precision = int(precision);
    } else {
        return "unknown [report] key '" + key + "'";
    }
    return "";
}

} // namespace

bool
parseStudySpec(const std::string &text, StudySpec &spec, std::string &err)
{
    spec = StudySpec();

    std::istringstream in(text);
    std::string rawLine, section;
    int lineNo = 0;
    while (std::getline(in, rawLine)) {
        ++lineNo;
        std::string line = trim(rawLine);
        if (line.empty() || line[0] == '#')
            continue;

        std::string what;
        if (line.front() == '[') {
            section = line.substr(1, line.size() - 2);
            if (line.back() != ']')
                what = "malformed section header '" + line + "'";
            else if (!knownSection(section))
                what = "unknown section [" + section + "]";
        } else {
            size_t eq = line.find('=');
            if (eq == std::string::npos)
                what = "expected 'key = value', got '" + line + "'";
            else
                what = setSpecKey(spec, section, trim(line.substr(0, eq)),
                                  trim(line.substr(eq + 1)));
        }
        if (!what.empty()) {
            err = "line " + std::to_string(lineNo) + ": " + what;
            return false;
        }
    }
    return true;
}

bool
applySpecSetting(const std::string &assignment, StudySpec &spec,
                 std::string &err)
{
    size_t eq = assignment.find('=');
    std::string path = trim(assignment.substr(0, eq));
    size_t dot = path.find('.');
    std::string section = dot == std::string::npos ? "" : path.substr(0, dot);
    std::string key = dot == std::string::npos ? path : path.substr(dot + 1);
    std::string what;
    if (eq == std::string::npos)
        what = "expected SECTION.KEY=VALUE";
    else if (dot != std::string::npos && !knownSection(section))
        what = "unknown section [" + section + "]";
    else
        what = setSpecKey(spec, section, trim(key),
                          trim(assignment.substr(eq + 1)));
    if (what.empty())
        return true;
    err = "'" + assignment + "': " + what;
    return false;
}

} // namespace vmmx
