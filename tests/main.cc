/**
 * @file
 * The one main() of every test binary: worker mode first, then gtest.
 *
 * Tests that run the processes backend set ExecutionPolicy::execPath to
 * "/proc/self/exe", so the driver starts each worker as this binary
 * with "--worker --fd N" -- the same path vmmx_study takes.
 * maybeWorkerMain() serves that invocation and never returns; any other
 * argv runs the suite.  Not named test_*.cc, so the ctest glob in
 * CMakeLists.txt does not make it a test of its own.
 */

#include <gtest/gtest.h>

#include "dist/worker.hh"

int
main(int argc, char **argv)
{
    vmmx::dist::maybeWorkerMain(argc, argv);
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
