/**
 * @file
 * Distributed sweep example: run a figure-style grid on worker
 * processes by naming the processes backend in an ExecutionPolicy,
 * backed by the persistent on-disk TraceStore.  The driver starts each
 * worker as `execPath --worker --fd N`; here execPath is this binary
 * ("/proc/self/exe"), so main() hands its argv to
 * dist::maybeWorkerMain() before anything else.
 *
 * Dispatch is group based: the driver splits the grid by *trace group*
 * (the points that replay one trace -- here, the two widths of each
 * (kernel, flavour) pair), each group crosses the wire as one unit, and
 * the worker runs it as a single batched pass that streams the trace
 * once, block by block, for all of the group's machine configurations.
 * The journal still records one entry per point, so a run that resumes
 * with part of a group done ships only the group's missing points.
 *
 *   run 1: workers generate every trace, writing it through to the
 *          store as it streams, and the driver journals each finished
 *          point;
 *   run 2: the same grid is served with zero trace regenerations --
 *          traces come off disk, and the completed points come straight
 *          from the journal without spawning a single worker.
 *
 * Results of every variant are bit-identical to the serial
 * materialize-then-replay reference; the example exits nonzero if not.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/table.hh"
#include "dist/driver.hh"
#include "dist/worker.hh"
#include "harness/study.hh"

using namespace vmmx;

int
main(int argc, char **argv)
{
    // The workers are this binary, started with "--worker --fd N":
    // serve that first (it never returns).
    dist::maybeWorkerMain(argc, argv);
    setQuiet(true);
    namespace fs = std::filesystem;
    const fs::path scratch =
        fs::temp_directory_path() / "vmmx-distributed-sweep-example";
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    const std::string store = (scratch / "traces").string();
    const std::string journal = (scratch / "sweep.vmjl").string();

    StudySpec spec;
    spec.kernels = {"motion1", "addblock", "comp"};
    spec.kinds = {SimdKind::MMX64, SimdKind::VMMX128};
    spec.ways = {2, 4};
    const std::vector<SweepPoint> points = Study(spec).points();

    // Reference: each point's trace resolved whole, then replayed, in a
    // private repository.
    TraceRepository privateRepo;
    ExecutionPolicy reference;
    reference.repo = &privateRepo;
    std::vector<SweepResult> expect;
    for (const SweepPoint &p : points)
        expect.push_back(runSweepPoint(p, reference));

    // Distributed: same grid, two worker processes (this binary again),
    // disk-backed traces, crash-resume journal.
    ExecutionPolicy policy;
    policy.backend = ExecutionPolicy::Backend::Process;
    policy.processes = 2;
    policy.execPath = "/proc/self/exe";
    policy.storeDir = store;
    policy.journalPath = journal;
    dist::DistStats stats;
    policy.distStats = &stats;

    std::cout << "distributed sweep: " << points.size()
              << " grid points over " << policy.processes << " workers\n\n";
    auto results = runPoints(points, policy);

    TextTable table({"point", "cycles", "ipc"});
    for (const auto &r : results)
        table.addRow({r.point.label(), std::to_string(r.cycles()),
                      TextTable::num(r.result.core.ipc())});
    table.print(std::cout);
    std::cout << "\nrun 1: " << stats.summary() << '\n';

    // Second invocation: everything resumes from the journal.
    dist::DistStats resumed;
    policy.distStats = &resumed;
    auto resumedResults = runPoints(points, policy);
    std::cout << "run 2: " << resumed.summary() << '\n';

    // And with the journal gone, traces still come off the disk store.
    std::remove(journal.c_str());
    dist::DistStats fromStore;
    policy.distStats = &fromStore;
    auto storeResults = runPoints(points, policy);
    std::cout << "run 3: " << fromStore.summary() << '\n';

    bool ok = true;
    for (size_t i = 0; i < expect.size(); ++i)
        ok = ok && results[i].sameRun(expect[i]) &&
             resumedResults[i].sameRun(expect[i]) &&
             storeResults[i].sameRun(expect[i]);
    std::cout << "\nbit-identical to the serial reference: "
              << (ok ? "yes" : "NO") << '\n';
    if (fromStore.generations != 0) {
        std::cout << "expected zero regenerations from the store\n";
        ok = false;
    }
    fs::remove_all(scratch);
    return ok ? 0 : 1;
}
