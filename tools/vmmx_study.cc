/**
 * @file
 * vmmx_study -- run a declarative experiment spec and print its report.
 *
 * Loads a StudySpec from a text file (see specs/ for checked-in
 * examples and README "Studies" for the format), expands the grid,
 * executes it through the backend the spec's [exec] section names --
 * serial, in-process threads, or sharded worker processes -- and
 * renders the [report] section's derived-metric tables.  Figures are
 * reproducible from a checked-in spec instead of a bespoke binary:
 *
 *   vmmx_study specs/fig5.study
 *   vmmx_study --backend processes --processes 4 specs/fig5.study
 *   vmmx_study --report-only specs/fig5.study   # tables only (CI diffs)
 *
 * --check reruns the grid through the materialize-then-replay reference
 * (every trace resolved whole, then replayed point by point, as
 * Sweep::runSerial does) and exits nonzero unless every point is
 * bit-identical -- the backend-equivalence guarantee of
 * harness/executor.hh, asserted here on real specs for the streaming
 * backends.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/worker.hh"
#include "harness/study.hh"
#include "sim/simd_dispatch.hh"
#include "trace/trace_repo.hh"

using namespace vmmx;

namespace
{

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
        "usage: vmmx_study [options] SPEC.study\n"
        "  --backend B     override the spec's execution backend\n"
        "                  (serial, threads, processes)\n"
        "  --threads N     override the spec's thread count\n"
        "  --processes N   override the spec's worker-process count\n"
        "  --max-respawns N      override the spec's per-slot worker\n"
        "                  respawn budget (processes backend)\n"
        "  --unit-timeout-ms N   override the spec's per-unit deadline\n"
        "                  (processes backend; 0 = no deadline)\n"
        "  --max-unit-attempts N override how many workers one unit may\n"
        "                  kill before quarantine (processes backend)\n"
        "  --simd P        pin the host-SIMD step kernel for batched\n"
        "                  groups (scalar, sse2, avx2, avx512, auto);\n"
        "                  paths the host cpuid does not support are\n"
        "                  rejected.  Equivalent to VMMX_SIMD=P.\n"
        "  --report-only   print only the report tables (no title or\n"
        "                  timing lines; what CI diffs against benches)\n"
        "  --dump-spec     print the canonical spec text and exit\n"
        "  --check         also run the materialize-then-replay reference\n"
        "                  and exit nonzero unless bit-identical\n"
        "  --verbose       keep warn()/inform() output\n"
        "  --metrics-json FILE  write the run's metrics registry (repo\n"
        "                  tiers, dist counters, per-unit timing) as JSON\n"
        "  --trace-events FILE  write a Chrome trace-event JSON timeline\n"
        "                  for chrome://tracing or ui.perfetto.dev\n"
        "  --progress      rate-limited live progress on stderr\n"
        "  --progress-json FILE  streamed JSONL progress events\n"
        "                  ('-' = stderr)\n"
        "  --help          this text\n";
    std::exit(rc);
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker mode (processes backend self-exec) never returns.
    dist::maybeWorkerMain(argc, argv);

    std::string specPath;
    bool reportOnly = false, dumpSpec = false, check = false;
    bool verbose = false;
    bool backendOverride = false;
    ExecutionPolicy::Backend backend = ExecutionPolicy::Backend::ThreadPool;
    int threadsOverride = -1, processesOverride = -1;
    int maxRespawnsOverride = -1, unitTimeoutOverride = -1;
    int maxAttemptsOverride = -1;
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
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--backend") {
            std::string b = value(i);
            if (!parseBackend(b, backend))
                fatal("--backend: unknown backend '%s'", b.c_str());
            backendOverride = true;
        } else if (arg == "--threads")
            threadsOverride = int(parseUnsigned("--threads", value(i)));
        else if (arg == "--processes") {
            processesOverride = int(parseUnsigned("--processes", value(i)));
            if (processesOverride == 0)
                fatal("--processes must be >= 1");
        }
        else if (arg == "--max-respawns")
            maxRespawnsOverride =
                int(parseUnsigned("--max-respawns", value(i)));
        else if (arg == "--unit-timeout-ms")
            unitTimeoutOverride =
                int(parseUnsigned("--unit-timeout-ms", value(i)));
        else if (arg == "--max-unit-attempts") {
            maxAttemptsOverride =
                int(parseUnsigned("--max-unit-attempts", value(i)));
            if (maxAttemptsOverride == 0)
                fatal("--max-unit-attempts must be >= 1");
        }
        else if (arg == "--simd") {
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
            // Self-exec'd workers of the processes backend re-resolve
            // from the environment, so the pin must outlive this parse.
            ::setenv("VMMX_SIMD", p.c_str(), 1);
        }
        else if (arg == "--report-only")
            reportOnly = true;
        else if (arg == "--dump-spec")
            dumpSpec = true;
        else if (arg == "--check")
            check = true;
        else if (arg == "--verbose")
            verbose = true;
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
        else if (!arg.empty() && arg[0] == '-')
            usage(2);
        else if (specPath.empty())
            specPath = arg;
        else
            usage(2);
    }
    if (specPath.empty())
        usage(2);
    setQuiet(!verbose);

    Study study = Study::fromFile(specPath);
    StudySpec &spec = study.spec();
    if (backendOverride)
        spec.exec.backend = backend;
    if (threadsOverride >= 0)
        spec.exec.threads = unsigned(threadsOverride);
    if (processesOverride > 0)
        spec.exec.processes = unsigned(processesOverride);
    if (maxRespawnsOverride >= 0)
        spec.exec.maxRespawns = unsigned(maxRespawnsOverride);
    if (unitTimeoutOverride >= 0)
        spec.exec.unitTimeoutMs = u64(unitTimeoutOverride);
    if (maxAttemptsOverride > 0)
        spec.exec.maxUnitAttempts = unsigned(maxAttemptsOverride);
    spec.exec.execPath = selfPath(argv[0]);

    if (dumpSpec) {
        std::cout << study.specText();
        return 0;
    }

    // The spec's raw budget supersedes whatever the environment set on
    // the process-wide repository (the [exec] section is the declarative
    // home of that knob; the VMMX_* variable is only its default).
    TraceRepository &repo = spec.exec.repository();
    repo.setRawBudget(spec.exec.rawBudget);

    auto points = study.points();
    if (points.empty())
        fatal("%s: empty grid (no kernels or apps)", specPath.c_str());

    // Observability wiring; purely observational (results bit-identical
    // either way).  The processes backend forwards the flag to every
    // worker in the Setup frame.
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
    dist::DistStats distStats;
    bool processesBackend =
        spec.exec.backend == ExecutionPolicy::Backend::Process;
    if (processesBackend && !spec.exec.distStats)
        spec.exec.distStats = &distStats;

    if (!reportOnly) {
        std::cout << (spec.title.empty() ? specPath : spec.title) << "\n"
                  << points.size() << " grid points via the "
                  << executorFor(spec.exec.backend).name()
                  << " backend ("
                  << (spec.exec.batch ? "batched trace groups"
                                      : "per-point jobs")
                  << ")\n\n";
    }

    auto start = std::chrono::steady_clock::now();
    auto results = study.run();
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    study.writeReport(std::cout, results);

    if (!reportOnly) {
        std::cout << "\nstudy: " << results.size() << " points in "
                  << TextTable::num(seconds) << " s ("
                  << TextTable::num(seconds > 0
                                        ? double(results.size()) / seconds
                                        : 0.0)
                  << " points/s)\n";
    }

    if (!metricsPath.empty()) {
        // The "repo" section: worker-fleet tier aggregate for the
        // processes backend, the in-process repository otherwise.
        if (processesBackend)
            dist::publishMetrics(*spec.exec.distStats);
        else
            repo.publishMetrics();
        std::ofstream out(metricsPath);
        if (!out)
            fatal("cannot open '%s'", metricsPath.c_str());
        telemetry::Registry::instance().dumpJson(out);
        if (!reportOnly)
            std::cout << "study: metrics written to " << metricsPath
                      << '\n';
    }
    if (!tracePath.empty()) {
        std::ofstream out(tracePath);
        if (!out)
            fatal("cannot open '%s'", tracePath.c_str());
        telemetry::Tracer::instance().writeTraceEvents(out);
        if (!reportOnly)
            std::cout << "study: trace events written to " << tracePath
                      << '\n';
    }
    if (progressFile)
        std::fclose(progressFile);

    if (check) {
        // A private repository: the reference shares nothing with the
        // run it checks.
        TraceRepository referenceRepo(nullptr, 0, 0);
        ExecutionPolicy reference;
        reference.repo = &referenceRepo;
        size_t mismatches = 0;
        for (size_t i = 0; i < points.size(); ++i) {
            SweepResult expect = runSweepPoint(points[i], reference);
            if (!results[i].sameRun(expect)) {
                std::cout << "MISMATCH at " << expect.point.label()
                          << '\n';
                ++mismatches;
            }
        }
        std::cout << "check vs serial reference: "
                  << (mismatches ? "FAIL" : "bit-identical") << '\n';
        if (mismatches)
            return 1;
    }
    return 0;
}
