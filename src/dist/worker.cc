#include "dist/worker.hh"

#include <cstdlib>
#include <cstring>
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

/**
 * Deterministic fault injection (the driver's supervision paths are
 * only testable if workers can be made to fail on cue).  The plan
 * arrives in the Setup frame; every directive is keyed on stable
 * counters -- units received, units answered, result frames sent -- so
 * a given (spec, spawn) always fails at exactly the same place.
 */
struct FaultState
{
    explicit FaultState(const SetupMsg &setup) : id_(setup.workerId)
    {
        if (setup.faultSpec.empty())
            return;
        std::string err;
        if (!env::parseFaultSpec(setup.faultSpec.c_str(), plan_, err)) {
            warn("worker %u: ignoring unparsable fault spec: %s",
                 unsigned(id_), err.c_str());
            plan_.clear();
        }
    }

    /** The injected crash: distinguishable from a clean exit and from
     *  the codes a real abort would produce. */
    [[noreturn]] static void die() { ::_exit(137); }

    /** Account a received unit and fire any arrival-keyed directive;
     *  may exit or hang instead of returning. */
    void onUnit(const std::vector<u32> &indices)
    {
        ++unitsStarted_;
        for (const auto &a : plan_) {
            if (!a.applies(id_))
                continue;
            switch (a.kind) {
              case env::FaultAction::Kind::KillAfterUnits:
                if (unitsDone_ >= a.value)
                    die();
                break;
              case env::FaultAction::Kind::KillOnPoint:
                for (u32 i : indices)
                    if (u64(i) == a.value)
                        die();
                break;
              case env::FaultAction::Kind::Stall:
                if (unitsStarted_ == std::max<u64>(a.value, 1))
                    for (;;) // only the driver's deadline ends this
                        ::sleep(3600);
                break;
              default:
                break;
            }
        }
    }

    /** Whether the unit just received is the kill-mid-unit target. */
    bool killMidThisUnit() const
    {
        for (const auto &a : plan_)
            if (a.applies(id_) &&
                a.kind == env::FaultAction::Kind::KillMidUnit &&
                unitsStarted_ == std::max<u64>(a.value, 1))
                return true;
        return false;
    }

    /** Account one outgoing result frame; true = corrupt this one. */
    bool corruptThisResult()
    {
        ++resultsSent_;
        for (const auto &a : plan_)
            if (a.applies(id_) &&
                a.kind == env::FaultAction::Kind::CorruptFrame &&
                resultsSent_ == a.value)
                return true;
        return false;
    }

    void onUnitDone() { ++unitsDone_; }

    /** The session exit code: @p rc, or the injected nonzero one. */
    int exitCode(int rc) const
    {
        for (const auto &a : plan_)
            if (a.applies(id_) &&
                a.kind == env::FaultAction::Kind::ExitCode)
                return int(a.value);
        return rc;
    }

  private:
    std::vector<env::FaultAction> plan_;
    u64 id_ = 0;
    u64 unitsStarted_ = 0; ///< units received, 1-based after onUnit()
    u64 unitsDone_ = 0;    ///< units fully answered
    u64 resultsSent_ = 0;  ///< result frames sent, 1-based in corrupt check
};

} // namespace

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
    FaultState fault(setup);

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

    // A private repository (not instance()): its statistics then
    // describe exactly this worker's jobs, and forked workers behave
    // identically to self-exec'd ones instead of inheriting
    // parent-warmed traces.
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
            stats.hits = repo.rawStats().hits;
            stats.diskLoads = repo.diskLoads();
            stats.storeSaves = store ? store->saves() : 0;
            stats.bytesResident = repo.rawStats().bytes;
            stats.decodes = repo.decodes();
            stats.decodedHits = repo.decodedStats().hits;
            stats.decodedBytes = repo.decodedStats().bytes;
            wire::writeFrame(fd, encode(stats));
            rc = 0;
            break;
        }
        JobGroupMsg group;
        if (type != Msg::JobGroup || !decode(frame, group)) {
            wire::writeFrame(fd, encodeError("malformed frame from driver"));
            break;
        }
        fault.onUnit(group.indices); // may exit or stall here

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

        // kill-mid-unit: answer only half the group, then crash -- the
        // driver must reclaim and re-dispatch the missing tail.
        bool midKill = fault.killMidThisUnit();
        size_t limit = midKill ? runs.size() / 2 : runs.size();

        bool sent = true;
        {
            TELEMETRY_SPAN("wire.encode");
            for (size_t k = 0; k < limit && sent; ++k) {
                ResultMsg res;
                res.index = group.indices[k];
                res.traceLength = runs[k].traceLength;
                res.result = runs[k].result;
                std::vector<u8> payload = encode(res);
                if (fault.corruptThisResult())
                    payload[0] = 0x7f; // undecodable type byte
                sent = wire::writeFrame(fd, payload);
            }
        }
        if (midKill)
            FaultState::die();
        if (!sent)
            break; // driver went away; nothing useful left to do
        fault.onUnitDone();
        flushTelemetry();
    }
    ::close(fd);
    return fault.exitCode(rc);
}

bool
maybeWorkerMain(int argc, char **argv)
{
    int fd = -1;
    bool worker = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker") == 0)
            worker = true;
        else if (std::strcmp(argv[i], "--fd") == 0 && i + 1 < argc)
            fd = std::atoi(argv[i + 1]);
    }
    if (!worker)
        return false;
    if (fd < 0)
        fatal("--worker requires --fd <descriptor>");
    // _exit: a worker forked from a threaded or gtest parent must not run
    // the parent's atexit handlers.
    ::_exit(workerServe(fd));
}

} // namespace vmmx::dist
