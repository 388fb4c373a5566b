// vmmx_lint-fixture: rule=env-discipline path=src/dist/worker.cc
// A third number parser: atoi reads "junk" as 0 and has undefined
// behaviour past int, so a bad --fd would serve standard input.
#include <cstdlib>

namespace vmmx::dist
{

int
workerFd(const char *text)
{
    return std::atoi(text);
}

} // namespace vmmx::dist
