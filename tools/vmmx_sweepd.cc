/**
 * @file
 * vmmx_sweepd -- standalone driver for distributed grid sweeps.
 *
 * Builds a (workload x SIMD flavour x machine width) grid from the
 * command line, shards it across self-exec'd worker processes (the
 * driver re-executes its own binary with "--worker --fd N"), and prints
 * the per-point results plus scheduler and trace-store statistics.
 *
 *   vmmx_sweepd --processes 4 --kernels idct,motion1 --ways 2,4,8
 *   vmmx_sweepd --apps gsmenc --kinds vmmx64,vmmx128 --journal sweep.vmjl
 *
 * --check additionally runs the same grid through the serial in-process
 * sweep and exits nonzero unless every point is bit-identical (the
 * distributed determinism guarantee; this is what CI's distributed
 * smoke job asserts).  An interrupted journaled run resumes: rerun with
 * the same --journal and only the missing points execute.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/worker.hh"
#include "harness/sweep.hh"
#include "sim/simd_dispatch.hh"

using namespace vmmx;

namespace
{

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
selfPath(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0; // non-procfs fallback; must then be an absolute path
}

[[noreturn]] void
usage(int rc)
{
    std::cout <<
        "usage: vmmx_sweepd [options]\n"
        "  --processes N      worker processes (default 2)\n"
        "  --kernels a,b,...  Table II kernel names\n"
        "  --apps a,b,...     application names\n"
        "  --kinds k,...      SIMD flavours (default all four)\n"
        "  --ways w,...       machine widths (default 2,4,8)\n"
        "  --store DIR        trace store directory\n"
        "                     (default $VMMX_TRACE_STORE or system tmp)\n"
        "  --cache-budget B   per-worker raw-trace RAM budget, e.g. 256M\n"
        "                     (default $VMMX_TRACE_CACHE_BUDGET;\n"
        "                     0 = unlimited)\n"
        "  --journal FILE     crash-resume journal; rerun with the same\n"
        "                     file to resume an interrupted sweep\n"
        "  --journal-sync     fdatasync the journal after every entry so\n"
        "                     it survives a host crash (or set\n"
        "                     VMMX_JOURNAL_SYNC=1)\n"
        "  --max-respawns N   respawns per dead worker slot before it is\n"
        "                     abandoned (default $VMMX_MAX_RESPAWNS or 3)\n"
        "  --unit-timeout-ms N  per-unit wall-clock deadline; a worker\n"
        "                     past it is killed and treated as crashed\n"
        "                     (default $VMMX_UNIT_TIMEOUT_MS or 0 = off)\n"
        "  --max-unit-attempts N  workers one unit may kill before it is\n"
        "                     quarantined instead of retried (default\n"
        "                     $VMMX_MAX_UNIT_ATTEMPTS or 3)\n"
        "  --fault-spec SPEC  deterministic fault injection plan, e.g.\n"
        "                     'kill-after-units=3@worker1,corrupt-frame=7'\n"
        "                     (default $VMMX_FAULT_SPEC; see README\n"
        "                     \"Fault tolerance\" for the grammar)\n"
        "  --simd P           pin the host-SIMD step kernel for batched\n"
        "                     groups (scalar, sse2, avx2, avx512, auto);\n"
        "                     paths the host cpuid does not support are\n"
        "                     rejected.  Equivalent to VMMX_SIMD=P and\n"
        "                     inherited by every worker process.\n"
        "  --no-batch         one point per dispatch instead of batched\n"
        "                     trace groups (or set VMMX_SWEEP_BATCH=0)\n"
        "  --check            verify against the serial in-process sweep\n"
        "  --verbose          keep worker warn()/inform() output\n"
        "  --metrics-json FILE  write the run's metrics registry (repo\n"
        "                     tiers, dist counters, per-unit timing) as\n"
        "                     JSON\n"
        "  --trace-events FILE  write a Chrome trace-event JSON timeline\n"
        "                     (driver + workers) for chrome://tracing or\n"
        "                     ui.perfetto.dev\n"
        "  --progress         rate-limited live progress on stderr\n"
        "  --progress-json FILE  streamed JSONL progress events\n"
        "                     ('-' = stderr)\n"
        "  --help             this text\n";
    std::exit(rc);
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker mode never returns.
    dist::maybeWorkerMain(argc, argv);

    std::vector<std::string> kernels, apps;
    std::vector<SimdKind> kinds(allSimdKinds.begin(), allSimdKinds.end());
    std::vector<unsigned> ways = {2, 4, 8};
    dist::DistOptions dopts;
    bool check = false;
    dopts.quiet = true;
    std::string metricsPath, tracePath, progressJsonPath;
    bool progressStderr = false;

    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            fatal("option '%s' needs a value", argv[i]);
        return argv[++i];
    };
    auto parseUnsigned = [](const std::string &what, const std::string &s) {
        unsigned v = 0;
        if (!env::parseUnsigned(s.c_str(), v))
            fatal("%s: '%s' is not a number", what.c_str(), s.c_str());
        return v;
    };
    auto parseBudget = [](const std::string &what, const std::string &s) {
        u64 bytes = 0;
        if (!TraceRepository::parseBudget(s.c_str(), bytes))
            fatal("%s: '%s' is not a byte size (try 256M, 2G, 4096)",
                  what.c_str(), s.c_str());
        return bytes;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--processes")
            dopts.processes = parseUnsigned("--processes", value(i));
        else if (arg == "--kernels")
            kernels = splitList(value(i));
        else if (arg == "--apps")
            apps = splitList(value(i));
        else if (arg == "--kinds") {
            kinds.clear();
            for (const auto &k : splitList(value(i)))
                kinds.push_back(parseSimdKind(k));
        } else if (arg == "--ways") {
            ways.clear();
            for (const auto &w : splitList(value(i)))
                ways.push_back(parseUnsigned("--ways", w));
        } else if (arg == "--store")
            dopts.storeDir = value(i);
        else if (arg == "--cache-budget")
            dopts.cacheBudget = parseBudget("--cache-budget", value(i));
        else if (arg == "--journal")
            dopts.journalPath = value(i);
        else if (arg == "--journal-sync")
            dopts.journalSync = true;
        else if (arg == "--max-respawns")
            dopts.maxRespawns = parseUnsigned("--max-respawns", value(i));
        else if (arg == "--unit-timeout-ms")
            dopts.unitTimeoutMs =
                parseUnsigned("--unit-timeout-ms", value(i));
        else if (arg == "--max-unit-attempts") {
            dopts.maxUnitAttempts =
                parseUnsigned("--max-unit-attempts", value(i));
            if (dopts.maxUnitAttempts == 0)
                fatal("--max-unit-attempts must be >= 1");
        } else if (arg == "--fault-spec") {
            dopts.faultSpec = value(i);
            std::vector<env::FaultAction> plan;
            std::string err;
            if (!env::parseFaultSpec(dopts.faultSpec.c_str(), plan, err))
                fatal("--fault-spec: %s", err.c_str());
        } else if (arg == "--simd") {
            std::string p = value(i);
            simd::Path path{};
            bool isAuto = false;
            if (!simd::parsePath(p, path, isAuto))
                fatal("--simd: '%s' is not scalar|sse2|avx2|avx512|auto",
                      p.c_str());
            if (isAuto) {
                simd::setActivePathAuto();
            } else {
                std::string err = simd::setActivePath(path);
                if (!err.empty())
                    fatal("--simd: %s", err.c_str());
            }
            // Workers are self-exec'd and re-resolve from the
            // environment, so the pin must survive the fork+exec.
            ::setenv("VMMX_SIMD", p.c_str(), 1);
        } else if (arg == "--no-batch")
            dopts.batch = false;
        else if (arg == "--check")
            check = true;
        else if (arg == "--verbose")
            dopts.quiet = false;
        else if (arg == "--metrics-json")
            metricsPath = value(i);
        else if (arg == "--trace-events")
            tracePath = value(i);
        else if (arg == "--progress")
            progressStderr = true;
        else if (arg == "--progress-json")
            progressJsonPath = value(i);
        else if (arg == "--help")
            usage(0);
        else
            usage(2);
    }
    if (dopts.processes == 0)
        fatal("--processes must be >= 1");
    if (kernels.empty() && apps.empty())
        kernels = {"idct", "motion1", "rgb"};

    Sweep grid;
    grid.addKernelGrid(kernels, kinds, ways);
    grid.addAppGrid(apps, kinds, ways);
    if (grid.size() == 0)
        fatal("empty grid");

    dopts.execPath = selfPath(argv[0]);
    setQuiet(dopts.quiet);

    // Observability wiring.  Telemetry is purely observational (results
    // are bit-identical either way); it turns on when any export asks
    // for it, and the flag rides to every worker in the Setup frame.
    if (!metricsPath.empty() || !tracePath.empty())
        telemetry::setEnabled(true);
    std::FILE *progressFile = nullptr;
    if (!progressJsonPath.empty()) {
        if (progressJsonPath != "-") {
            progressFile = std::fopen(progressJsonPath.c_str(), "w");
            if (!progressFile)
                fatal("cannot open '%s'", progressJsonPath.c_str());
        }
        telemetry::setProgress(telemetry::ProgressMode::Jsonl,
                               progressFile);
    } else if (progressStderr) {
        telemetry::setProgress(telemetry::ProgressMode::Stderr);
    }
    telemetry::Tracer::instance().setProcessName(u64(::getpid()),
                                                 "driver");

    std::cout << "vmmx_sweepd: " << grid.size() << " grid points over "
              << dopts.processes << " worker processes ("
              << (dopts.batch ? "batched trace groups" : "per-point jobs")
              << ")\n";
    dist::DistStats stats;
    auto results = dist::runSweep(grid.points(), dopts, &stats);

    TextTable table({"point", "insts", "cycles", "ipc"});
    for (const auto &r : results)
        table.addRow({r.point.label(), std::to_string(r.traceLength),
                      std::to_string(r.cycles()),
                      TextTable::num(r.result.core.ipc())});
    table.print(std::cout);
    std::cout << '\n' << stats.summary() << '\n';

    // Per-worker repository tier stats.  The "dist-" prefix keeps these
    // lines (which legitimately differ run to run) easy to filter when
    // diffing the result table of two runs, as CI does.
    auto budgetStr = [](u64 b) {
        return b ? std::to_string(b) + " B" : std::string("unlimited");
    };
    std::cout << "dist-budgets: raw " << budgetStr(dopts.cacheBudget)
              << " per worker\n";
    for (size_t wi = 0; wi < stats.perWorker.size(); ++wi) {
        const auto &w = stats.perWorker[wi];
        std::cout << "dist-worker " << wi << ": " << w.generations
                  << " generations, " << w.hits << " raw hits, "
                  << w.diskLoads << " disk loads, "
                  << w.bytesResident / 1024 << " KiB raw resident\n";
    }
    // Every spawn's fate (the "dist-" prefix keeps these filterable:
    // respawn ordinals and exit details legitimately differ run to run).
    for (const auto &e : stats.exitCauses)
        std::cout << "dist-exit: slot " << e.slot << " spawn " << e.spawnId
                  << " " << dist::name(e.cause) << " (" << e.detail
                  << ")\n";

    // Exports are written even for runs that then fail the quarantine
    // check below: a failed run's telemetry is the interesting kind.
    if (!metricsPath.empty()) {
        dist::publishMetrics(stats);
        std::ofstream out(metricsPath);
        if (!out)
            fatal("cannot open '%s'", metricsPath.c_str());
        telemetry::Registry::instance().dumpJson(out);
        std::cout << "vmmx_sweepd: metrics written to " << metricsPath
                  << '\n';
    }
    if (!tracePath.empty()) {
        std::ofstream out(tracePath);
        if (!out)
            fatal("cannot open '%s'", tracePath.c_str());
        telemetry::Tracer::instance().writeTraceEvents(out);
        std::cout << "vmmx_sweepd: trace events written to " << tracePath
                  << '\n';
    }
    if (progressFile)
        std::fclose(progressFile);

    // Quarantined points never executed; their rows above are default
    // zeros.  That must not read as success.
    if (!stats.quarantinedPoints.empty()) {
        std::cout << "vmmx_sweepd: FAILED -- "
                  << stats.quarantinedPoints.size()
                  << " grid points quarantined (their units kept killing "
                     "workers)\n";
        return 3;
    }

    if (check) {
        SweepOptions serialOpts;
        serialOpts.threads = 1;
        TraceRepository privateRepo;
        serialOpts.repo = &privateRepo;
        Sweep serial(serialOpts);
        serial.addKernelGrid(kernels, kinds, ways);
        serial.addAppGrid(apps, kinds, ways);
        auto expect = serial.runSerial();

        size_t mismatches = 0;
        for (size_t i = 0; i < expect.size(); ++i) {
            if (!results[i].sameRun(expect[i])) {
                std::cout << "MISMATCH at " << expect[i].point.label()
                          << '\n';
                ++mismatches;
            }
        }
        std::cout << "check vs serial in-process sweep: "
                  << (mismatches ? "FAIL" : "bit-identical") << '\n';
        if (mismatches)
            return 1;
    }
    return 0;
}
