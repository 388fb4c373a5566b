// vmmx_lint-fixture: rule=worker-exec path=src/dist/driver.cc
// A worker forked without exec: the child keeps the driver's telemetry
// buffers and exit handlers and runs code no shipped binary runs.
#include <unistd.h>

namespace vmmx::dist
{

int workerServe(int fd);

pid_t
spawnForkedWorker(int fd)
{
    pid_t pid = fork();
    if (pid == 0)
        ::_exit(workerServe(fd));
    return pid;
}

} // namespace vmmx::dist
