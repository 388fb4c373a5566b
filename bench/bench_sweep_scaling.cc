/**
 * @file
 * Sweep-engine scaling microbench: a fig5-style grid of
 * (kernel x flavour x width) points timed three ways --
 *
 *   serial/uncached : the pre-sweep-engine path (regenerate the trace at
 *                     every point, run points one by one);
 *   serial/groups   : the serial executor: whole trace groups, each run
 *                     as one batched pass that streams its trace block
 *                     by block, generated ahead on a producer thread;
 *   sweep/groups    : the same trace groups on a four-thread pool.
 *
 * A host-SIMD section times every runnable SoA step kernel on a wide
 * (12-config) group.  These grids run in milliseconds, so every timing
 * here is informational smoke output, not evidence for a default: the
 * exit status depends on bit-identity alone -- every variant, every
 * SIMD path and a telemetry-on rerun must reproduce the serial/uncached
 * RunResults exactly.  The per-tier TraceRepository::summary() table is
 * printed at the end.
 */

#include <algorithm>
#include <chrono>
#include <map>

#include "bench_util.hh"
#include "sim/simd_dispatch.hh"

using namespace vmmx;
using namespace vmmx::bench;

namespace
{

/** The seed-era serial path: fresh trace generation at every point. */
std::vector<SweepResult>
runSerialUncached(const std::vector<SweepPoint> &points)
{
    std::vector<SweepResult> out;
    out.reserve(points.size());
    for (const auto &pt : points) {
        auto k = makeKernel(pt.name);
        MemImage mem(TraceRepository::kernelImageBytes);
        Rng rng(TraceRepository::defaultSeed);
        k->prepare(mem, rng);
        Program p(mem, pt.kind);
        k->emit(p);
        auto trace = p.takeTrace();

        SweepResult r;
        r.point = pt;
        r.traceLength = trace.size();
        r.result = runTrace(makeMachine(pt.kind, pt.way, pt.overrides),
                            trace);
        out.push_back(std::move(r));
    }
    return out;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
main()
{
    setQuiet(true);
    // All headline timings run with telemetry disabled (the default);
    // pin it so a stray VMMX_TELEMETRY=1 can't skew the baselines.  The
    // explicit enabled-vs-disabled comparison happens at the end.
    telemetry::setEnabled(false);

    // 6 kernels x 4 flavours x 3 widths = 72 points, 24 distinct traces
    // (so 24 trace groups of 3 widths each).  The motion/GSM/block
    // kernels have short dynamic traces, so the per-point baseline is
    // dominated by trace generation -- exactly the regime the batched
    // pass is for (the long-trace kernels are covered by fig4/fig5).
    StudySpec spec;
    spec.kernels = {"motion1", "motion2", "comp", "addblock", "ltppar",
                    "ltpfilt"};
    const std::vector<SweepPoint> points = Study(spec).points();
    const size_t nTraces = groupPointsByTrace(points).size();

    ExecutionPolicy serialPolicy;
    serialPolicy.backend = ExecutionPolicy::Backend::Serial;
    ExecutionPolicy poolPolicy;
    poolPolicy.threads = 4;

    const size_t nPoints = points.size();
    std::cout << "sweep scaling: " << nPoints
              << " (kernel, flavour, width) points, " << nTraces
              << " trace groups\n\n";

    using clock = std::chrono::steady_clock;
    constexpr int reps = 3;

    // Warm up: fault in the allocator so every variant is timed at
    // steady state (min of three reps).
    auto pooled = runPoints(points, poolPolicy);

    double tBase = 1e9, tGroups = 1e9, tPooled = 1e9;
    std::vector<SweepResult> baseline, grouped;
    for (int r = 0; r < reps; ++r) {
        auto t0 = clock::now();
        baseline = runSerialUncached(points);
        auto t1 = clock::now();
        grouped = runPoints(points, serialPolicy); // 1 thread + producer
        auto t2 = clock::now();
        pooled = runPoints(points, poolPolicy); // 4 threads
        auto t3 = clock::now();
        tBase = std::min(tBase, seconds(t0, t1));
        tGroups = std::min(tGroups, seconds(t1, t2));
        tPooled = std::min(tPooled, seconds(t2, t3));
    }

    bool identical = true;
    for (size_t i = 0; i < baseline.size(); ++i) {
        if (!baseline[i].sameRun(grouped[i]) ||
            !baseline[i].sameRun(pooled[i])) {
            identical = false;
            std::cout << "MISMATCH at point " << i << " ("
                      << baseline[i].point.label() << ")\n";
        }
    }

    auto pps = [&](double t) { return TextTable::num(nPoints / t, 1); };
    TextTable table({"variant", "wall s", "points/s", "speedup"});
    table.addRow({"serial/uncached", TextTable::num(tBase, 3), pps(tBase),
                  TextTable::num(1.0)});
    table.addRow({"serial/groups", TextTable::num(tGroups, 3), pps(tGroups),
                  TextTable::num(tBase / tGroups)});
    table.addRow({"sweep/groups (4t)", TextTable::num(tPooled, 3),
                  pps(tPooled), TextTable::num(tBase / tPooled)});
    table.print(std::cout);

    // ---- host-SIMD step kernels on a wide group ----------------------
    // One trace replayed on 12 knob variants -- wide enough that every
    // compiled path runs full vectors (AVX-512 steps 8 configs per op)
    // plus a partial tail.  Each runnable path is pinned in turn and
    // timed on the same pre-decoded stream, so the only variable is the
    // step kernel; the fused per-config serial loop (runTrace x 12, the
    // oracle every path must match bit-for-bit) is the baseline row.
    // The group runs the rgb trace -- the longest, most
    // compute-dominated kernel -- so the vectorized timing phases show;
    // the short branchy kernels spend most of their stepping in the
    // per-lane scalar sub-phases (memory disambiguation, free lists, ROB
    // ring) that no path can vectorize.
    double simdBestSpeedup = 1.0;
    bool simdIdentical = true;
    std::map<std::string, double> simdPps;
    {
        std::vector<MachineConfig> wideGroup;
        for (s64 rob : {16, 24, 32, 40, 48, 64, 80, 96, 112, 128, 160,
                        192}) {
            Config knobs;
            knobs.set("core.rob", rob);
            wideGroup.push_back(makeMachine(SimdKind::VMMX128, 4, knobs));
        }
        TraceRepository simdRepo(nullptr, 0, 0);
        auto trace = simdRepo.kernel("rgb", SimdKind::VMMX128);
        auto stream = simdRepo.decoded(trace.shared());

        // The group is sub-millisecond per pass; time several passes
        // per rep.
        constexpr int passes = 20;
        std::vector<RunResult> oracle;
        double tSerial = 1e9;
        for (int r = 0; r < reps; ++r) {
            auto t0 = clock::now();
            for (int it = 0; it < passes; ++it) {
                oracle.clear();
                for (const MachineConfig &m : wideGroup)
                    oracle.push_back(runTrace(m, stream.stream()));
            }
            tSerial = std::min(tSerial, seconds(t0, clock::now()));
        }

        auto gpps = [&](double t) {
            return wideGroup.size() * passes / t;
        };
        TextTable simdTable({"step kernel (12-config group)", "wall s",
                             "points/s", "speedup"});
        simdTable.addRow({"serial fused (per-config)",
                          TextTable::num(tSerial, 3),
                          TextTable::num(gpps(tSerial), 1),
                          TextTable::num(1.0)});
        double tScalar = 0;
        u32 usable = simd::compiledMask() & simd::supportedMask();
        for (unsigned ord = 0; ord < simd::numPaths; ++ord) {
            if (!(usable & (u32(1) << ord)))
                continue;
            simd::Path path = simd::Path(ord);
            std::string err = simd::setActivePath(path);
            if (!err.empty())
                panic("pinning %s: %s", simd::pathName(path), err.c_str());
            double tPath = 1e9;
            std::vector<RunResult> runs;
            for (int r = 0; r < reps; ++r) {
                auto t0 = clock::now();
                for (int it = 0; it < passes; ++it)
                    runs = runTraceBatch(wideGroup, stream.stream());
                tPath = std::min(tPath, seconds(t0, clock::now()));
            }
            for (size_t i = 0; i < oracle.size(); ++i)
                if (!(runs[i] == oracle[i])) {
                    simdIdentical = false;
                    std::cout << "MISMATCH " << simd::pathName(path)
                              << " vs serial at config " << i << "\n";
                }
            if (path == simd::Path::Scalar)
                tScalar = tPath;
            double speedup = tScalar / tPath;
            simdBestSpeedup = std::max(simdBestSpeedup, speedup);
            simdPps[simd::pathName(path)] = gpps(tPath);
            simdTable.addRow(
                {std::string("SoA ") + simd::pathName(path) + " (" +
                     std::to_string(simd::pathLanes(path)) + " lanes)",
                 TextTable::num(tPath, 3), TextTable::num(gpps(tPath), 1),
                 TextTable::num(tSerial / tPath)});
        }
        simd::setActivePathAuto();
        std::cout << '\n';
        simdTable.print(std::cout);
        std::cout << "best SIMD path vs scalar SoA reference: "
                  << TextTable::num(simdBestSpeedup) << "x\n";
    }

    // Repository summary: the per-tier occupancy/hit table, including
    // any VMMX_TRACE_CACHE_BUDGET.
    std::cout << '\n' << TraceRepository::instance().summary() << '\n';
    std::cout << "results bit-identical across variants: "
              << (identical ? "yes" : "NO") << '\n';

    double speedup = tBase / tPooled;
    std::cout << "4-thread sweep speedup vs serial/uncached: "
              << TextTable::num(speedup) << "x, " << pps(tPooled)
              << " points/s\n";

    // ---- telemetry on: the same sweep, spans recorded -----------------
    // Telemetry is purely observational, so the instrumented rerun must
    // stay bit-identical.
    size_t spansPerRun = 0;
    {
        telemetry::setEnabled(true);
        std::vector<SweepResult> telem = runPoints(points, poolPolicy);
        spansPerRun = telemetry::Tracer::instance().size();
        telemetry::Tracer::instance().clear();
        telemetry::Registry::instance().clear();
        telemetry::setEnabled(false);
        for (size_t i = 0; i < baseline.size(); ++i)
            if (!baseline[i].sameRun(telem[i])) {
                identical = false;
                std::cout << "MISMATCH telemetry-on at point " << i << " ("
                          << baseline[i].point.label() << ")\n";
            }
    }
    std::cout << "telemetry on (spans + unit records): " << spansPerRun
              << " spans/run, results "
              << (identical ? "bit-identical" : "DIFFER") << '\n';

    // Machine-readable perf record for CI trend tracking.
    PerfRecord rec("sweep_scaling");
    rec.note("grid", std::to_string(nPoints) + " points, " +
                         std::to_string(nTraces) + " trace groups");
    rec.metric("points", double(nPoints));
    rec.metric("serialUncached.pointsPerSec", nPoints / tBase);
    rec.metric("serialGroups.pointsPerSec", nPoints / tGroups);
    rec.metric("sweepGroups.pointsPerSec", nPoints / tPooled);
    rec.metric("sweepSpeedupVsSerialUncached", speedup);
    rec.metric("telemetry.spansPerRun", double(spansPerRun));
    rec.note("simd.active", simd::pathName(simd::bestPath()));
    for (const auto &[path, pps12] : simdPps)
        rec.metric("simd." + path + ".pointsPerSec", pps12);
    rec.metric("simd.bestSpeedupVsScalar", simdBestSpeedup);
    if (rec.write())
        std::cout << "perf record written to " << rec.path() << '\n';

    return identical && simdIdentical ? 0 : 1;
}
