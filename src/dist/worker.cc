#include "dist/worker.hh"

#include <cstring>
#include <limits>
#include <memory>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "dist/protocol.hh"
#include "harness/executor.hh"
#include "trace/trace_repo.hh"

namespace vmmx::dist
{

namespace
{

/** Serve jobs over @p fd until a Done frame or EOF.  @return the
 *  process exit code (0 on a clean shutdown).  Closes @p fd. */
int
workerServe(int fd)
{
    std::vector<u8> frame;
    if (!wire::readFrame(fd, frame)) {
        ::close(fd);
        return 1;
    }
    SetupMsg setup;
    if (!decode(frame, setup)) {
        wire::writeFrame(fd, encodeError("bad or missing Setup frame"));
        ::close(fd);
        return 1;
    }
    setQuiet(setup.quiet);
    telemetry::setEnabled(setup.telemetry);

    // Buffered spans and unit records ship to the driver as Event
    // frames -- after every unit (so a later crash loses at most one
    // unit's telemetry) and once more before the Stats reply.
    auto flushTelemetry = [&]() {
        if (!telemetry::enabled())
            return;
        EventMsg ev;
        ev.workerId = setup.workerId;
        ev.pid = u64(::getpid());
        ev.spans = telemetry::Tracer::instance().drain();
        ev.units = telemetry::Registry::instance().drainUnits();
        if (ev.spans.empty() && ev.units.empty())
            return;
        wire::writeFrame(fd, encode(ev));
    };

    // A private repository (not instance()): its counters then describe
    // exactly this worker's jobs.
    std::unique_ptr<TraceStore> store;
    if (!setup.storeDir.empty())
        store = std::make_unique<TraceStore>(setup.storeDir);
    TraceRepository repo(store.get());
    ExecutionPolicy policy;
    policy.repo = &repo;

    int rc = 1;
    while (wire::readFrame(fd, frame)) {
        Msg type = frameType(frame);
        if (type == Msg::Done) {
            flushTelemetry();
            StatsMsg stats;
            stats.generations = repo.generations();
            stats.diskLoads = repo.diskLoads();
            stats.storeSaves = store ? store->saves() : 0;
            wire::writeFrame(fd, encode(stats));
            rc = 0;
            break;
        }
        JobGroupMsg group;
        if (type != Msg::JobGroup || !decode(frame, group)) {
            wire::writeFrame(fd, encodeError("malformed frame from driver"));
            break;
        }

        // All points of a group replay the same trace by construction,
        // and no other unit replays it, so the trace streams from the
        // store (or the generator) block by block and nothing is
        // retained.  The Event codec stamps this worker's id on the
        // unit record runSweepUnit leaves.
        std::vector<u32> slots(group.points.size());
        for (u32 k = 0; k < slots.size(); ++k)
            slots[k] = k;
        std::vector<SweepResult> runs(slots.size());
        runSweepUnit(group.points, slots, policy, runs);

        bool sent = true;
        {
            TELEMETRY_SPAN("wire.encode");
            for (size_t k = 0; k < runs.size() && sent; ++k) {
                ResultMsg res;
                res.index = group.indices[k];
                res.traceLength = runs[k].traceLength;
                res.result = runs[k].result;
                sent = wire::writeFrame(fd, encode(res));
            }
        }
        if (!sent)
            break; // driver went away; nothing useful left to do
        flushTelemetry();
    }
    ::close(fd);
    return rc;
}

} // namespace

bool
maybeWorkerMain(int argc, char **argv)
{
    const char *fdText = nullptr;
    bool worker = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker") == 0)
            worker = true;
        else if (std::strcmp(argv[i], "--fd") == 0 && i + 1 < argc)
            fdText = argv[i + 1];
    }
    if (!worker)
        return false;
    unsigned fd = 0;
    if (!env::parseUnsigned(fdText, fd) ||
        fd > unsigned(std::numeric_limits<int>::max()))
        fatal("--worker requires --fd <descriptor> (got '%s')",
              fdText ? fdText : "");
    // _exit: the serve loop wrote every frame with write(2), so there is
    // nothing to flush and no static of this image worth destroying.
    ::_exit(workerServe(int(fd)));
}

} // namespace vmmx::dist
