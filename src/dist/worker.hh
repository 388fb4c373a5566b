/**
 * @file
 * Worker side of the distributed sweep protocol: a job loop that serves
 * grid points over one file descriptor until the driver sends Done.
 *
 * The driver starts every worker the same way: posix_spawn of
 * ExecutionPolicy::execPath with "--worker --fd N" (`vmmx_study
 * --worker --fd N`, or a test binary through "/proc/self/exe"), whose
 * main() hands that argv to maybeWorkerMain().  Each worker owns a
 * private tiered TraceRepository so its per-tier statistics describe
 * exactly the jobs it ran, with the shared on-disk TraceStore as the
 * cross-process tier 0.  Trace groups stream their trace from the store
 * (or the generator, writing through to the store) block by block and
 * retain nothing.
 */

#ifndef VMMX_DIST_WORKER_HH
#define VMMX_DIST_WORKER_HH

namespace vmmx::dist
{

/**
 * Worker entry hook: if @p argv requests worker mode ("--worker --fd
 * N"), serve jobs on that descriptor until Done or EOF and _exit() --
 * never returns in that case.  Call first thing in main() of any binary
 * used as an ExecutionPolicy::execPath target.  @return false when argv
 * is not a worker invocation.
 */
bool maybeWorkerMain(int argc, char **argv);

} // namespace vmmx::dist

#endif // VMMX_DIST_WORKER_HH
