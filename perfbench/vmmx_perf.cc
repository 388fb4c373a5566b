/**
 * @file
 * vmmx_perf -- the measuring half of the repository benchmark;
 * perfbench/run.py is the orchestrating half.  Each invocation is one
 * fresh process (so TraceRepository::instance() and ru_maxrss start
 * cold) running one mode, and prints one JSON object on stdout (golden
 * prints a table instead):
 *
 *   host                      build and host stamp
 *   golden SPEC               every RunResult field of every grid point,
 *                             from the serial executor, as TSV (how
 *                             perfbench/golden/ was recorded)
 *   run SPEC [opts]           one timed Study::run(), with the result
 *                             checked against --golden and the
 *                             trace-repository counters guarded
 *   fill SPEC --store DIR     generate every trace of SPEC and save it to
 *                             a trace store (the warm workload's set-up)
 *   traced SPEC [opts]        walk the executor's units with spans around
 *                             each layer's public entry point
 *   micro --seed N            layer microbenches on seeded inputs
 *
 * Options: --golden FILE, --backend serial|processes, --processes N,
 * --store DIR, --journal FILE, --expect cold|warm, --spans FILE,
 * --seed N, --cell-seconds S.
 *
 * Only public library calls are timed; nothing here reaches into the
 * simulator's internals, so the numbers move exactly when the code
 * behind those calls changes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/protocol.hh"
#include "dist/worker.hh"
#include "harness/study.hh"
#include "mem/memsys.hh"
#include "sim/simd_dispatch.hh"
#include "trace/trace_io.hh"
#include "trace/trace_repo.hh"
#include "trace/trace_store.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

using namespace vmmx;

namespace
{

using Options = std::map<std::string, std::string>;

u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

double
secondsSince(u64 startNs)
{
    return double(nowNs() - startNs) * 1e-9;
}

std::string
opt(const Options &o, const std::string &key, const std::string &dflt = "")
{
    auto it = o.find(key);
    return it == o.end() ? dflt : it->second;
}

std::string
selfPath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        fatal("cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return buf;
}

/** One flat JSON object, written field by field. */
class Json
{
  public:
    Json &num(const std::string &k, double v)
    {
        char b[64];
        std::snprintf(b, sizeof(b), "%.17g", v);
        return raw(k, b);
    }
    Json &num(const std::string &k, u64 v) { return raw(k, std::to_string(v)); }
    Json &flag(const std::string &k, bool v) { return raw(k, v ? "true" : "false"); }
    Json &str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + telemetry::jsonEscape(v) + "\"");
    }
    Json &raw(const std::string &k, const std::string &v)
    {
        os_ << (first_ ? "{" : ", ") << '"' << k << "\": " << v;
        first_ = false;
        return *this;
    }
    std::string done() { return os_.str() + (first_ ? "{}" : "}"); }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

// ---- correctness ------------------------------------------------------

/** Every field of one point's result, in golden-file column order. */
std::vector<u64>
resultFields(const SweepResult &r)
{
    const RunStats &c = r.result.core;
    std::vector<u64> f{r.traceLength, c.cycles, c.instructions};
    f.insert(f.end(), c.instByClass.begin(), c.instByClass.end());
    f.insert(f.end(),
             {c.scalarCycles, c.vectorCycles, c.branches, c.mispredicts,
              c.memOps, c.renameStallRegs, c.renameStallRob, c.renameStallIq,
              r.result.l1Hits, r.result.l1Misses, r.result.l2Hits,
              r.result.l2Misses, r.result.vecAccesses,
              r.result.cohInvalidations});
    return f;
}

std::string
goldenHeader()
{
    std::string h = "# label trace_length cycles instructions";
    for (unsigned i = 0; i < numInstClasses; ++i)
        h += std::string(" insts_") + instClassName(InstClass(i));
    h += " scalar_cycles vector_cycles branches mispredicts mem_ops"
         " rename_stall_regs rename_stall_rob rename_stall_iq l1_hits"
         " l1_misses l2_hits l2_misses vec_accesses coh_invalidations";
    return h;
}

void
writeGolden(std::ostream &os, const std::vector<SweepResult> &results)
{
    os << goldenHeader() << '\n';
    for (const auto &r : results) {
        os << r.point.label();
        for (u64 v : resultFields(r))
            os << ' ' << v;
        os << '\n';
    }
}

/** Points of @p results that differ from the golden file in any field
 *  (or in label); every point counts when the file does not match the
 *  grid's shape at all. */
u64
countMismatches(const std::vector<SweepResult> &results,
                const std::string &goldenPath)
{
    std::ifstream in(goldenPath);
    if (!in) {
        std::fprintf(stderr, "vmmx_perf: cannot read golden %s\n",
                     goldenPath.c_str());
        return results.size();
    }
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    if (lines.size() != results.size()) {
        std::fprintf(stderr, "vmmx_perf: golden has %zu points, run %zu\n",
                     lines.size(), results.size());
        return results.size();
    }
    u64 bad = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        std::ostringstream got;
        got << results[i].point.label();
        for (u64 v : resultFields(results[i]))
            got << ' ' << v;
        if (got.str() != lines[i]) {
            if (bad == 0)
                std::fprintf(stderr,
                             "vmmx_perf: mismatch at point %zu\n  want %s\n"
                             "  got  %s\n",
                             i, lines[i].c_str(), got.str().c_str());
            ++bad;
        }
    }
    return bad;
}

/** Modelled-machine statistics summed over a workload. */
void
simTotals(Json &j, const std::vector<SweepResult> &results)
{
    u64 cycles = 0, insts = 0, mispredicts = 0, regs = 0, rob = 0, iq = 0;
    u64 l1h = 0, l1m = 0, l2h = 0, l2m = 0, vec = 0, coh = 0, steps = 0;
    for (const auto &r : results) {
        const RunResult &x = r.result;
        cycles += x.core.cycles;
        insts += x.core.instructions;
        mispredicts += x.core.mispredicts;
        regs += x.core.renameStallRegs;
        rob += x.core.renameStallRob;
        iq += x.core.renameStallIq;
        l1h += x.l1Hits;
        l1m += x.l1Misses;
        l2h += x.l2Hits;
        l2m += x.l2Misses;
        vec += x.vecAccesses;
        coh += x.cohInvalidations;
        steps += r.traceLength;
    }
    auto ratio = [](u64 a, u64 b) { return b ? double(a) / double(b) : 0.0; };
    j.num("steps", steps)
        .num("sim.cycles", cycles)
        .num("sim.insts", insts)
        .num("sim.mispredicts", mispredicts)
        .num("sim.rename_stall.regs", regs)
        .num("sim.rename_stall.rob", rob)
        .num("sim.rename_stall.iq", iq)
        .num("mem.l1.miss_ratio", ratio(l1m, l1h + l1m))
        .num("mem.l2.miss_ratio", ratio(l2m, l2h + l2m))
        .num("mem.vec_accesses", vec)
        .num("mem.coh_invalidations", coh);
}

// ---- modes --------------------------------------------------------------

Study
loadStudy(const std::string &spec, const Options &o)
{
    Study study = Study::fromFile(spec);
    ExecutionPolicy &ex = study.spec().exec;
    std::string backend = opt(o, "backend", "serial");
    if (!parseBackend(backend, ex.backend))
        fatal("unknown backend '%s'", backend.c_str());
    ex.processes = unsigned(std::stoul(opt(o, "processes", "3")));
    ex.storeDir = opt(o, "store");
    ex.journalPath = opt(o, "journal");
    ex.execPath = selfPath();
    return study;
}

struct Usage
{
    double cpuS = 0;
    u64 maxRssKiB = 0;
};

Usage
usage()
{
    auto secs = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    rusage self{}, kids{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &kids);
    Usage u;
    u.cpuS = secs(self.ru_utime) + secs(self.ru_stime) +
             secs(kids.ru_utime) + secs(kids.ru_stime);
    u.maxRssKiB = u64(std::max(self.ru_maxrss, kids.ru_maxrss));
    return u;
}

int
modeHost()
{
    std::string runnable;
    u32 mask = simd::compiledMask() & simd::supportedMask();
    for (unsigned p = 0; p < simd::numPaths; ++p)
        if (mask & (1u << p))
            runnable += std::string(runnable.empty() ? "" : ",") +
                        simd::pathName(simd::Path(p));
#ifdef __OPTIMIZE__
    bool optimized = true;
#else
    bool optimized = false;
#endif
#ifdef NDEBUG
    bool ndebug = true;
#else
    bool ndebug = false;
#endif
#ifdef __clang__
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::cout << Json()
                     .str("compiler", compiler)
                     .str("build_type", PERFBENCH_BUILD_TYPE)
                     .flag("optimized", optimized)
                     .flag("ndebug", ndebug)
                     .str("sanitizer", telemetry::sanitizerName())
                     .str("simd_best", simd::pathName(simd::bestPath()))
                     .str("simd_runnable", runnable)
                     .num("nproc", u64(std::thread::hardware_concurrency()))
                     .done()
              << '\n';
    return 0;
}

int
modeGolden(const std::string &spec)
{
    Options o{{"backend", "serial"}};
    Study study = loadStudy(spec, o);
    writeGolden(std::cout, study.run());
    return 0;
}

int
modeRun(const std::string &spec, const Options &o)
{
    // Set-up: everything a vmmx_study user pays before the first unit
    // can run.  run.py times it from its own fork to t_ready_ns.
    Study study = loadStudy(spec, o);
    ExecutionPolicy &ex = study.spec().exec;
    dist::DistStats ds;
    bool processes = ex.backend == ExecutionPolicy::Backend::Process;
    if (processes)
        ex.distStats = &ds;
    std::vector<SweepPoint> points = study.points();
    simd::activePath();
    TraceRepository &repo = ex.repository();
    u64 tReady = nowNs();

    Usage u0 = usage();
    u64 t0 = nowNs();
    std::vector<SweepResult> results = study.run();
    double wall = secondsSince(t0);
    Usage u1 = usage();

    u64 traces = groupPointsByTrace(points).size();
    u64 gens = processes ? ds.generations : repo.generations();
    u64 loads = processes ? ds.diskLoads : repo.diskLoads();
    bool warm = opt(o, "expect", "cold") == "warm";
    bool guardOk = warm ? (loads == traces && gens == 0)
                        : (gens == traces && loads == 0);
    if (!guardOk)
        std::fprintf(stderr,
                     "vmmx_perf: repository guard failed (%s): %llu traces, "
                     "%llu generations, %llu disk loads\n",
                     warm ? "warm" : "cold", (unsigned long long)traces,
                     (unsigned long long)gens, (unsigned long long)loads);
    TraceRepository::TierStats dec = repo.decodedStats();

    Json j;
    j.str("mode", "run")
        .num("t_ready_ns", tReady)
        .num("wall_s", wall)
        .num("cpu_s", u1.cpuS - u0.cpuS)
        .num("peak_rss_kib", u1.maxRssKiB)
        .num("points", u64(results.size()))
        .num("traces", traces)
        .num("mismatches", countMismatches(results, opt(o, "golden")))
        .num("quarantined", u64(ds.quarantinedPoints.size()))
        .num("abnormal_exits", ds.abnormalExits)
        .flag("guard_ok", guardOk)
        .num("processes", u64(processes ? 1 + ds.workers : 1))
        .num("trace_repo.generations", gens)
        .num("trace_repo.disk_loads", loads)
        .num("trace_repo.decodes", processes ? ds.decodes : dec.fills)
        .num("trace_repo.decoded_hits", processes ? ds.decodedHits : dec.hits)
        .num("trace_repo.raw.bytes",
             processes ? ds.bytesResident : repo.rawStats().bytes)
        .num("trace_repo.decoded.bytes",
             processes ? ds.decodedBytes : dec.bytes)
        .num("dist.groups_run", ds.groupsRun)
        .num("dist.steals", ds.steals)
        .num("dist.respawns", ds.respawns)
        .num("dist.retries", ds.retries);
    simTotals(j, results);
    std::cout << j.done() << '\n';
    return 0;
}

int
modeFill(const std::string &spec, const Options &o)
{
    std::string dir = opt(o, "store");
    if (dir.empty())
        fatal("fill needs --store DIR");
    Study study = Study::fromFile(spec);
    std::vector<SweepPoint> points = study.points();
    TraceStore store(dir);
    double genS = 0, saveS = 0;
    u64 traces = 0, rawBytes = 0, fileBytes = 0;
    u64 t0 = nowNs();
    for (const auto &group : groupPointsByTrace(points)) {
        TraceKey key = traceKeyFor(points[group[0]]);
        // A private repository per trace keeps only one raw trace
        // resident at a time.
        TraceRepository repo(nullptr, 0, 0);
        u64 g0 = nowNs();
        TraceRepository::TraceHandle trace = repo.raw(key);
        genS += secondsSince(g0);
        u64 s0 = nowNs();
        if (!store.save(key, *trace))
            fatal("cannot save %s to %s", key.describe().c_str(),
                  dir.c_str());
        saveS += secondsSince(s0);
        ++traces;
        rawBytes += trace->size() * sizeof(InstRecord);
        fileBytes += std::filesystem::file_size(store.path(key));
    }
    std::cout << Json()
                     .str("mode", "fill")
                     .num("fill_s", secondsSince(t0))
                     .num("trace.generate.s", genS)
                     .num("trace_store.save.s", saveS)
                     .num("traces", traces)
                     .num("raw_bytes", rawBytes)
                     .num("store_bytes", fileBytes)
                     .done()
              << '\n';
    return 0;
}

/** In-memory span log of the traced run, written out at the end. */
struct SpanLog
{
    struct Span
    {
        std::string name;
        u64 start = 0, end = 0;
        int parent = -1;
        int unit = -1;
    };
    std::vector<Span> spans;

    int open(const std::string &name, int parent, int unit)
    {
        spans.push_back({name, nowNs(), 0, parent, unit});
        return int(spans.size() - 1);
    }
    void close(int id) { spans[size_t(id)].end = nowNs(); }

    void write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        out << "[\n";
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << "  " << Json()
                               .str("name", s.name)
                               .num("start_ns", s.start)
                               .num("end_ns", s.end)
                               .raw("parent", std::to_string(s.parent))
                               .raw("unit", std::to_string(s.unit))
                               .done()
                << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }
};

/**
 * The traced run: the same units the executor forms, walked by hand
 * with a span around each layer's public entry -- trace resolution
 * (TraceRepository::app/kernel), the decoded tier
 * (TraceRepository::decoded) and the step (runTraceBatch).  Whatever a
 * unit spends outside those calls is harness time.  With --store the
 * repository reads the filled store, so trace resolution is a disk
 * load instead of a generation.
 */
int
modeTraced(const std::string &spec, const Options &o)
{
    Study study = Study::fromFile(spec);
    std::string dir = opt(o, "store");
    std::unique_ptr<TraceStore> store;
    if (!dir.empty())
        store = std::make_unique<TraceStore>(dir);
    TraceRepository repo(store.get(), 0, 0);
    SpanLog log;

    int root = log.open("study", -1, -1);
    std::vector<SweepPoint> points = study.points();
    std::vector<std::vector<u32>> units = groupPointsByTrace(points);
    std::vector<SweepResult> results(points.size());
    for (size_t u = 0; u < units.size(); ++u) {
        const std::vector<u32> &unit = units[u];
        int us = log.open("unit", root, int(u));
        const SweepPoint &lead = points[unit[0]];
        TraceKey key = traceKeyFor(lead);

        u64 gens = repo.generations(), loads = repo.diskLoads();
        int ts = log.open("trace", us, int(u));
        {
            TraceRepository::TraceHandle trace =
                key.isApp ? repo.app(key.name, key.kind, key.imageBytes,
                                     key.seed)
                          : repo.kernel(key.name, key.kind, key.imageBytes,
                                        key.seed);
        }
        log.close(ts);
        log.spans[size_t(ts)].name =
            repo.generations() > gens ? "trace.generate"
            : repo.diskLoads() > loads ? "trace_store.load"
                                       : "trace.hit";

        int ds = log.open("decode", us, int(u));
        TraceRepository::DecodedHandle stream = repo.decoded(key);
        log.close(ds);

        std::vector<MachineConfig> machines;
        for (u32 i : unit)
            machines.push_back(makeMachine(points[i].kind, points[i].way,
                                           points[i].overrides));
        int ss = log.open("sim.step", us, int(u));
        std::vector<RunResult> runs = runTraceBatch(machines, stream.stream());
        log.close(ss);

        for (size_t k = 0; k < unit.size(); ++k) {
            SweepResult &r = results[unit[k]];
            r.point = points[unit[k]];
            r.traceLength = stream.records();
            r.result = runs[k];
        }
        log.close(us);
    }
    log.close(root);

    log.write(opt(o, "spans"));
    TraceRepository::TierStats dec = repo.decodedStats();
    Json j;
    j.str("mode", "traced")
        .num("points", u64(results.size()))
        .num("units", u64(units.size()))
        .num("mismatches", countMismatches(results, opt(o, "golden")))
        .num("trace_repo.generations", repo.generations())
        .num("trace_repo.disk_loads", repo.diskLoads())
        .num("trace_repo.decodes", dec.fills)
        .num("trace_repo.decoded_hits", dec.hits);
    simTotals(j, results);
    std::cout << j.done() << '\n';
    return 0;
}

// ---- microbenches -------------------------------------------------------

/**
 * Repeat @p body until @p minSeconds have passed (and at least three
 * times); @return the median per-call seconds.
 */
template <typename F>
double
medianSeconds(double minSeconds, F &&body)
{
    std::vector<double> samples;
    u64 start = nowNs();
    while (samples.size() < 3 || secondsSince(start) < minSeconds) {
        u64 t0 = nowNs();
        body();
        samples.push_back(secondsSince(t0));
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** The 15-config group shape of the ablation-wide workload. */
std::vector<SweepPoint>
wideGroup(const std::string &app, SimdKind kind)
{
    static const char *knobs[] = {"core.rob=32", "core.iq=64",
                                  "mem.l1.size=8192", "mem.l2.size=65536",
                                  "mem.latency=100"};
    std::vector<SweepPoint> pts;
    for (unsigned way : {2u, 4u, 8u})
        for (const char *knob : knobs) {
            SweepPoint p;
            p.workload = SweepPoint::Workload::App;
            p.name = app;
            p.kind = kind;
            p.way = way;
            p.overrides = Config(std::vector<std::string>{knob});
            pts.push_back(std::move(p));
        }
    return pts;
}

std::vector<MachineConfig>
machinesOf(const std::vector<SweepPoint> &pts)
{
    std::vector<MachineConfig> m;
    for (const auto &p : pts)
        m.push_back(makeMachine(p.kind, p.way, p.overrides));
    return m;
}

int
modeMicro(const Options &o)
{
    u64 seed = std::stoull(opt(o, "seed", "1"));
    double cell = std::stod(opt(o, "cell-seconds", "0.4"));
    const std::string app = "jpegdec";
    const SimdKind kind = SimdKind::VMMX128;
    Json j;
    j.str("mode", "micro").num("seed", seed);

    // Generator: a full application trace from seeded inputs, in a
    // fresh repository each time so every call generates.
    u64 records = 0;
    double genS = medianSeconds(cell, [&] {
        TraceRepository repo(nullptr, 0, 0);
        records = repo.app(app, kind, TraceRepository::appImageBytes, seed)
                      ->size();
    });
    j.num("trace.generate.ns_per_record", genS * 1e9 / double(records));

    TraceRepository repo(nullptr, 0, 0);
    SharedTrace full =
        repo.app(app, kind, TraceRepository::appImageBytes, seed).shared();
    const double rawMB = double(full->size() * sizeof(InstRecord)) * 1e-6;

    // Trace codec (the store and wire format).
    std::vector<u8> encoded;
    double encS = medianSeconds(cell, [&] {
        wire::Writer w;
        encodeTrace(*full, w);
        encoded = w.take();
    });
    double decS = medianSeconds(cell, [&] {
        wire::Reader r(encoded);
        std::vector<InstRecord> out;
        if (!decodeTrace(r, out) || out.size() != full->size())
            fatal("decodeTrace round trip failed");
    });
    j.num("trace_io.encode.mb_per_s", rawMB / encS)
        .num("trace_io.decode.mb_per_s", rawMB / decS)
        .num("trace_io.ratio",
             double(encoded.size()) * 1e-6 / rawMB);

    // Configuration-independent decode.
    double dsS = medianSeconds(cell, [&] {
        if (decodeStream(*full).size() != full->size())
            fatal("decodeStream length mismatch");
    });
    j.num("decode.ns_per_record", dsS * 1e9 / double(full->size()));

    // Step: a fixed prefix of the trace, every runnable kernel path at
    // the fused width 1 and the batched widths 3 and 15.
    const size_t prefix = std::min<size_t>(full->size(), 60000);
    std::vector<InstRecord> slice(full->begin(),
                                  full->begin() + std::ptrdiff_t(prefix));
    DecodedStream stream = decodeStream(slice);
    std::vector<SweepPoint> g15 = wideGroup(app, kind);
    std::vector<SweepPoint> g3;
    for (unsigned way : {2u, 4u, 8u}) {
        SweepPoint p = g15[0];
        p.way = way;
        p.overrides = Config();
        g3.push_back(p);
    }
    std::vector<MachineConfig> m3 = machinesOf(g3), m15 = machinesOf(g15);
    double g1S = medianSeconds(cell, [&] { runTrace(m3[1], stream); });
    j.num("sim.step.ns_per_step.fused.g1", g1S * 1e9 / double(prefix));
    std::vector<RunResult> wideRuns;
    u32 runnable = simd::compiledMask() & simd::supportedMask();
    for (unsigned p = 0; p < simd::numPaths; ++p) {
        std::string base = std::string("sim.step.ns_per_step.") +
                           simd::pathName(simd::Path(p));
        if (!(runnable & (1u << p))) {
            // Not executable on this host: a sentinel, never a time.
            j.num(base + ".g3", -1.0).num(base + ".g15", -1.0);
            continue;
        }
        std::string err = simd::setActivePath(simd::Path(p));
        if (!err.empty())
            fatal("%s", err.c_str());
        double s3 = medianSeconds(cell, [&] { runTraceBatch(m3, stream); });
        double s15 = medianSeconds(
            cell, [&] { wideRuns = runTraceBatch(m15, stream); });
        j.num(base + ".g3", s3 * 1e9 / double(prefix * 3))
            .num(base + ".g15", s15 * 1e9 / double(prefix * 15));
    }
    simd::setActivePathAuto();

    // Memory system: the prefix's address stream replayed through the
    // 4-way machine's hierarchy, one access per cycle.
    u64 accesses = 0;
    double memS = medianSeconds(cell, [&] {
        MemorySystem mem(m3[1].mem);
        Cycle when = 0;
        accesses = 0;
        for (const DecodedInst &d : stream.insts) {
            if (!d.has(DecodedInst::kLoad) && !d.has(DecodedInst::kStore))
                continue;
            bool write = d.has(DecodedInst::kStore);
            if (d.has(DecodedInst::kVecMem))
                mem.vectorAccess(d.addr, d.rowBytes, d.stride, d.rows, write,
                                 when);
            else
                mem.scalarAccess(d.addr, d.rowBytes, write, when);
            ++when;
            ++accesses;
        }
    });
    j.num("mem.ns_per_access", memS * 1e9 / double(accesses));

    // Dist frames: one 15-point JobGroup and its 15 Results.
    dist::JobGroupMsg group;
    for (u32 i = 0; i < g15.size(); ++i) {
        group.indices.push_back(i);
        group.points.push_back(g15[i]);
    }
    std::vector<dist::ResultMsg> results;
    for (u32 i = 0; i < wideRuns.size(); ++i)
        results.push_back({i, u64(prefix), wideRuns[i]});
    std::vector<std::vector<u8>> frames;
    double frameBytes = 0;
    double fencS = medianSeconds(cell, [&] {
        frames.clear();
        for (int rep = 0; rep < 100; ++rep) {
            frames.push_back(dist::encode(group));
            for (const auto &r : results)
                frames.push_back(dist::encode(r));
        }
    });
    for (const auto &f : frames)
        frameBytes += double(f.size());
    double fdecS = medianSeconds(cell, [&] {
        dist::JobGroupMsg g;
        dist::ResultMsg r;
        for (const auto &f : frames) {
            bool ok = dist::frameType(f) == dist::Msg::JobGroup
                          ? dist::decode(f, g)
                          : dist::decode(f, r);
            if (!ok)
                fatal("frame decode failed");
        }
    });
    j.num("dist.frame.encode.mb_per_s", frameBytes * 1e-6 / fencS)
        .num("dist.frame.decode.mb_per_s", frameBytes * 1e-6 / fdecS);

    std::cout << j.done() << '\n';
    return 0;
}

[[noreturn]] void
usageExit()
{
    std::fprintf(stderr,
                 "usage: vmmx_perf host | golden SPEC | run SPEC [opts] |\n"
                 "       fill SPEC --store DIR | traced SPEC [opts] |\n"
                 "       micro --seed N [--cell-seconds S]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    // Processes-backend workers self-exec this binary.
    dist::maybeWorkerMain(argc, argv);
    setQuiet(true);

    if (argc < 2)
        usageExit();
    std::string mode = argv[1];
    std::string spec;
    Options o;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) == 0) {
            if (i + 1 >= argc)
                usageExit();
            o[a.substr(2)] = argv[++i];
        } else if (spec.empty()) {
            spec = a;
        } else {
            usageExit();
        }
    }
    if (mode == "host")
        return modeHost();
    if (mode == "micro")
        return modeMicro(o);
    if (spec.empty())
        usageExit();
    if (mode == "golden")
        return modeGolden(spec);
    if (mode == "run")
        return modeRun(spec, o);
    if (mode == "fill")
        return modeFill(spec, o);
    if (mode == "traced")
        return modeTraced(spec, o);
    usageExit();
}
