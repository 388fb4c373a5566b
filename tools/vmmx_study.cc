/**
 * @file
 * vmmx_study -- run a declarative experiment spec and print its report.
 *
 * Loads a StudySpec from a text file (see specs/ for checked-in
 * examples and README "Studies" for the format), applies any --set
 * assignments on top, expands the grid, executes it through the backend
 * the spec's [exec] section names -- serial, in-process threads, or
 * worker processes -- and renders the [report] section's
 * derived-metric tables.  Figures are reproducible from a checked-in
 * spec instead of a bespoke binary:
 *
 *   vmmx_study specs/fig5.study
 *   vmmx_study --set exec.backend=processes --set exec.processes=4 \
 *              specs/fig5.study
 *   vmmx_study --report-only specs/fig5.study   # tables only (CI diffs)
 *
 * --check reruns the grid through the materialize-then-replay reference
 * (every trace resolved whole, then replayed point by point) and exits
 * nonzero unless every point is bit-identical -- the backend-equivalence
 * guarantee of harness/executor.hh, asserted here on real specs for the
 * streaming backends.  On every backend a failing grid point ends the
 * run with exit 1; a processes run with exec.journal set resumes from
 * its journal when rerun.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/telemetry.hh"
#include "dist/driver.hh"
#include "dist/worker.hh"
#include "harness/harness_io.hh"
#include "harness/study.hh"
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

/** Print the usage text -- to stdout for --help (@p rc 0), to stderr
 *  for a usage error -- and exit with @p rc. */
[[noreturn]] void
usage(int rc)
{
    (rc == 0 ? std::cout : std::cerr) <<
        "usage: vmmx_study [options] SPEC.study\n"
        "  --set SECTION.KEY=VALUE  override one spec key after the file\n"
        "                  is read (repeatable; the syntax and checks of\n"
        "                  a spec line, the last assignment wins, and\n"
        "                  grid.override appends an override set), e.g.\n"
        "                  exec.backend=processes, exec.journal=run.vmjl\n"
        "  --report-only   print only the report tables (no title or\n"
        "                  timing lines; what specs/*.expected pins)\n"
        "  --dump-spec     print the canonical spec text and exit\n"
        "  --check         also run the materialize-then-replay reference\n"
        "                  and exit nonzero unless bit-identical\n"
        "  --verbose       keep warn()/inform() output\n"
        "  --metrics-json FILE  write the run's metrics registry (repo\n"
        "                  and dist counters, per-unit timing) as JSON\n"
        "  --trace-events FILE  write a Chrome trace-event JSON timeline\n"
        "                  for chrome://tracing or ui.perfetto.dev\n"
        "  --help          this text\n"
        "environment: VMMX_SIMD pins the host-SIMD step kernel,\n"
        "VMMX_JOURNAL_SYNC=1 fdatasyncs every journal entry (README\n"
        "\"Host SIMD\" and \"Failure and resume\").\n";
    std::exit(rc);
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker mode (processes backend self-exec) never returns.
    dist::maybeWorkerMain(argc, argv);

    std::string specPath;
    std::vector<std::string> settings;
    bool reportOnly = false, dumpSpec = false, check = false;
    bool verbose = false;
    std::string metricsPath, tracePath;

    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            fatal("option '%s' needs a value", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--set")
            settings.push_back(value(i));
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
    for (const std::string &setting : settings) {
        std::string err;
        if (!applySpecSetting(setting, spec, err))
            fatal("--set %s", err.c_str());
    }
    spec.exec.execPath = selfPath(argv[0]);

    if (dumpSpec) {
        std::cout << study.specText();
        return 0;
    }

    auto points = study.points();
    if (points.empty())
        fatal("%s: empty grid (no kernels or apps)", specPath.c_str());

    // Observability wiring; purely observational (results bit-identical
    // either way).  The processes backend forwards the flag to every
    // worker in the Setup frame.
    if (!metricsPath.empty() || !tracePath.empty())
        telemetry::setEnabled(true);
    telemetry::Tracer::instance().setProcessName(u64(::getpid()),
                                                 "driver");
    dist::DistStats distStats;
    spec.exec.distStats = &distStats;
    bool processesBackend =
        spec.exec.backend == ExecutionPolicy::Backend::Process;

    if (!reportOnly) {
        std::cout << (spec.title.empty() ? specPath : spec.title) << "\n"
                  << points.size() << " grid points in "
                  << groupPointsByTrace(points).size()
                  << " trace groups via the "
                  << name(spec.exec.backend)
                  << " backend\n\n";
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
        if (processesBackend)
            std::cout << "study: " << distStats.summary() << '\n';
    }

    if (!metricsPath.empty()) {
        // The "repo" section: worker-fleet counters for the
        // processes backend, the in-process repository otherwise.
        if (processesBackend)
            dist::publishMetrics(distStats);
        else
            spec.exec.repository().publishMetrics();
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
    if (check) {
        // A private repository per trace group: the reference shares
        // nothing with the run it checks, and holds one trace at a time.
        size_t mismatches = 0;
        for (const std::vector<u32> &group : groupPointsByTrace(points)) {
            TraceRepository referenceRepo;
            ExecutionPolicy reference;
            reference.repo = &referenceRepo;
            for (u32 i : group) {
                SweepResult expect = runSweepPoint(points[i], reference);
                if (!results[i].sameRun(expect)) {
                    std::cout << "MISMATCH at " << expect.point.label()
                              << '\n';
                    ++mismatches;
                }
            }
        }
        std::cout << "check vs serial reference: "
                  << (mismatches ? "FAIL" : "bit-identical") << '\n';
        if (mismatches)
            return 1;
    }
    return 0;
}
