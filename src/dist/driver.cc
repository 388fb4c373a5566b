#include "dist/driver.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/telemetry.hh"
#include "dist/protocol.hh"
#include "harness/executor.hh"
#include "harness/harness_io.hh"
#include "trace/trace_store.hh"

namespace vmmx::dist
{

namespace
{

constexpr u32 journalMagic = 0x4c4a4d56; // "VMJL" little-endian
constexpr u32 journalVersion = 1;

/**
 * One worker process.  A worker runs one unit at a time and is sent the
 * next only when it has answered every point of this one.
 */
struct WorkerProc
{
    pid_t pid = -1;
    int fd = -1;
    const SweepPoint *lead = nullptr; ///< lead point of the last unit sent
    u32 expect = 0; ///< its result frames still owed (0 = idle)
    bool doneSent = false;
    bool statsSeen = false;
};

// ---- journal ------------------------------------------------------------

/**
 * Append side of the crash journal.  A plain fd, not an ofstream: with
 * VMMX_JOURNAL_SYNC=1 each entry is fdatasync()ed so it survives a
 * *host* crash, and that requires the real descriptor.  Opened
 * O_CLOEXEC, so no worker inherits it.
 */
class Journal
{
  public:
    explicit Journal(bool sync) : sync_(sync) {}
    ~Journal() { close(); }
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    bool
    open(const std::string &path, bool truncate)
    {
        close();
        int flags =
            O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
        fd_ = ::open(path.c_str(), flags, 0644);
        return fd_ >= 0;
    }

    bool ok() const { return fd_ >= 0; }

    void
    writeHeader(u64 signature)
    {
        wire::Writer hdr;
        hdr.fixed32(journalMagic);
        hdr.fixed32(journalVersion);
        hdr.fixed64(signature);
        writeAll(hdr);
        commit();
    }

    /** Append one checksummed entry; @p payload is an encoded ResultMsg
     *  (the received Result frame bytes can be reused verbatim). */
    void
    append(const std::vector<u8> &payload)
    {
        TELEMETRY_SPAN("journal.write");
        wire::Writer frame;
        frame.fixed32(u32(payload.size()));
        frame.bytes(payload.data(), payload.size());
        frame.fixed64(wire::fnv1a(payload.data(), payload.size()));
        writeAll(frame);
        commit();
        if (telemetry::enabled())
            telemetry::Registry::instance().addCounter(
                "dist.journal.appends", 1);
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

  private:
    void
    writeAll(const wire::Writer &w)
    {
        const u8 *p = w.buffer().data();
        size_t n = w.size();
        while (n > 0) {
            ssize_t k = ::write(fd_, p, n);
            if (k < 0) {
                if (errno == EINTR)
                    continue;
                fatal("journal write failed: %s", std::strerror(errno));
            }
            p += k;
            n -= size_t(k);
        }
    }

    /** write() already leaves the entry visible to a resuming driver;
     *  sync mode additionally forces it to stable storage. */
    void
    commit()
    {
        if (!sync_)
            return;
        if (::fdatasync(fd_) != 0)
            warn("journal fdatasync failed: %s", std::strerror(errno));
        if (telemetry::enabled())
            telemetry::Registry::instance().addCounter(
                "dist.journal.syncs", 1);
    }

    int fd_ = -1;
    bool sync_;
};

/**
 * Restore completed entries from @p path into @p results/@p have.
 * Damage is counted, not silently dropped: every entry that cannot be
 * restored bumps @p skipped.  A damaged *tail* (crash mid-append) ends
 * the scan with @p validEnd at the end of the good prefix so the caller
 * can truncate it away and append; a damaged entry in the *middle*
 * (bit rot) sets @p needRewrite -- later good entries are still
 * restored, but the file must be rewritten from the restored state
 * because appending after corrupt bytes would strand the new entries.
 * @return false when the file is missing or belongs to a different grid.
 */
bool
journalLoad(const std::string &path, u64 signature,
            std::vector<SweepResult> &results, std::vector<bool> &have,
            u64 &restored, u64 &validEnd, u64 &skipped, bool &needRewrite)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    u64 fileSize = u64(in.tellg());
    in.seekg(0, std::ios::beg);

    auto readExact = [&in](void *dst, size_t n) {
        return bool(in.read(static_cast<char *>(dst), std::streamsize(n)));
    };

    u8 hdr[16];
    if (!readExact(hdr, sizeof(hdr)))
        return false;
    wire::Reader hr(hdr, sizeof(hdr));
    if (hr.fixed32() != journalMagic || hr.fixed32() != journalVersion) {
        warn("journal '%s' has a bad header; starting fresh", path.c_str());
        return false;
    }
    if (hr.fixed64() != signature) {
        warn("journal '%s' is for a different grid; starting fresh",
             path.c_str());
        return false;
    }
    validEnd = sizeof(hdr);

    u64 offset = sizeof(hdr);
    for (;;) {
        u8 lenBytes[4];
        if (!readExact(lenBytes, 4)) {
            if (offset < fileSize)
                ++skipped; // partial length prefix: crash mid-append
            break;
        }
        wire::Reader lr(lenBytes, 4);
        u32 len = lr.fixed32();
        // A corrupt length prefix must read as a damaged tail, not an
        // attempted multi-GiB allocation.
        if (offset + 4 + u64(len) + 8 > fileSize) {
            ++skipped;
            break;
        }
        std::vector<u8> payload(len);
        u8 sumBytes[8];
        if (!readExact(payload.data(), len) || !readExact(sumBytes, 8)) {
            ++skipped;
            break;
        }
        offset += 4 + len + 8;
        wire::Reader sr(sumBytes, 8);
        ResultMsg m;
        if (sr.fixed64() != wire::fnv1a(payload.data(), payload.size()) ||
            !decode(payload, m) || m.index >= results.size()) {
            // Damage with intact framing: count it, keep scanning --
            // the entries behind it are still good data.
            ++skipped;
            needRewrite = true;
            continue;
        }
        if (!have[m.index]) {
            results[m.index].result = m.result;
            results[m.index].traceLength = m.traceLength;
            have[m.index] = true;
            ++restored;
        }
        if (!needRewrite)
            validEnd = offset;
    }
    return true;
}

// ---- worker lifecycle ---------------------------------------------------

void
setCloexec(int fd)
{
    int flags = fcntl(fd, F_GETFD);
    if (flags >= 0)
        fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/**
 * Start one worker: posix_spawn @p execPath with "--worker --fd N".
 * The argv is built before the call, so the child runs nothing but the
 * exec.  Every other driver descriptor (the worker sockets, the
 * journal) is close-on-exec, so a dead driver reads as EOF everywhere.
 * @return 0, with @p w's pid and driver-side fd set, or an errno.
 */
int
spawnWorker(const std::string &execPath, WorkerProc &w)
{
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        fatal("socketpair failed: %s", std::strerror(errno));
    setCloexec(sv[0]);
    std::string fdText = std::to_string(sv[1]);
    // posix_spawn takes char *const[] but writes through none of it.
    char *argv[] = {const_cast<char *>(execPath.c_str()),
                    const_cast<char *>("--worker"),
                    const_cast<char *>("--fd"), fdText.data(), nullptr};
    int err = posix_spawn(&w.pid, execPath.c_str(), nullptr, nullptr, argv,
                          environ);
    ::close(sv[1]);
    if (err != 0) {
        w.pid = -1;
        ::close(sv[0]);
        return err;
    }
    w.fd = sv[0];
    return 0;
}

/** Close @p w's socket, SIGKILL it first when @p kill, and reap it.
 *  @return how it ended: "exit N" or "signal N". */
std::string
reap(WorkerProc &w, bool kill)
{
    // kill(-1, ...) would signal every process this user owns.
    vmmx_assert(w.pid > 0, "reaping a worker twice");
    if (w.fd >= 0) {
        ::close(w.fd);
        w.fd = -1;
    }
    if (kill)
        ::kill(w.pid, SIGKILL);
    int status = 0;
    pid_t got = waitpid(w.pid, &status, 0);
    w.pid = -1;
    if (got < 0)
        return "status unknown";
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "exit " + std::to_string(WEXITSTATUS(status));
}

/**
 * The one failure path.  A worker that closed its socket, sent a
 * malformed or Error frame, or exited abnormally ends the run: the model
 * is deterministic in each unit's TraceKey, so a retry would fail the
 * same way.  Every other worker is SIGKILLed and reaped first, so none
 * outlives the driver; every result already appended stays in the
 * journal for a rerun to resume.  @p status is how @p w ended (reap()).
 */
[[noreturn]] void
failRun(std::vector<WorkerProc> &workers, bool journaled,
        const WorkerProc &w, const std::string &why,
        const std::string &status)
{
    for (auto &other : workers)
        if (other.pid > 0)
            reap(other, true);
    std::string where = w.expect ? "on unit '" + w.lead->label() + "'"
                                 : std::string("with no unit in flight");
    fatal("worker slot %u failed %s (%s): %s%s",
          unsigned(&w - workers.data()), where.c_str(), status.c_str(),
          why.c_str(),
          journaled ? "; rerun with the same journal to resume" : "");
}

} // namespace

std::string
DistStats::summary() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    os << "dist: " << workers << " workers, " << jobsRun << " jobs run in "
       << groupsRun << " units, " << jobsResumed << " resumed from journal; "
       << "worker repositories: " << generations << " generations, " << hits
       << " raw hits, " << diskLoads << " disk loads, " << storeSaves
       << " store saves, " << decodes << " decodes, " << decodedHits
       << " decoded hits, " << bytesResident / (1024.0 * 1024.0)
       << " MiB raw + " << decodedBytes / (1024.0 * 1024.0)
       << " MiB decoded resident at exit";
    if (journalSkipped)
        os << "; " << journalSkipped << " damaged journal entries skipped";
    return os.str();
}

void
publishMetrics(const DistStats &st)
{
    if (!telemetry::enabled())
        return;
    telemetry::Registry &reg = telemetry::Registry::instance();
    reg.setGauge("dist.workers", st.workers);
    reg.setGauge("dist.jobsRun", st.jobsRun);
    reg.setGauge("dist.jobsResumed", st.jobsResumed);
    reg.setGauge("dist.groupsRun", st.groupsRun);
    reg.setGauge("dist.journalSkipped", st.journalSkipped);
    // The worker fleet's trace-repository tier aggregate: the "repo"
    // section of a distributed run's metrics export.
    reg.setGauge("repo.generations", st.generations);
    reg.setGauge("repo.raw.hits", st.hits);
    reg.setGauge("repo.diskLoads", st.diskLoads);
    reg.setGauge("repo.storeSaves", st.storeSaves);
    reg.setGauge("repo.raw.bytes", st.bytesResident);
    reg.setGauge("repo.decodes", st.decodes);
    reg.setGauge("repo.decoded.hits", st.decodedHits);
    reg.setGauge("repo.decoded.bytes", st.decodedBytes);
}

u64
gridSignature(const std::vector<SweepPoint> &points)
{
    wire::Writer w;
    w.varint(points.size());
    for (const auto &p : points)
        serialize(w, p);
    return wire::fnv1a(w.buffer().data(), w.size());
}

std::vector<SweepResult>
runSweep(const std::vector<SweepPoint> &points, const ExecutionPolicy &policy)
{
    vmmx_assert(policy.processes >= 1,
                "distributed sweep needs at least one worker");
    if (policy.execPath.empty())
        fatal("the processes backend needs ExecutionPolicy::execPath: a "
              "binary whose main() calls dist::maybeWorkerMain() first");
    DistStats local;
    DistStats &st = policy.distStats ? *policy.distStats : local;
    st = DistStats{};

    std::vector<SweepResult> results(points.size());
    std::vector<bool> have(points.size(), false);
    for (size_t i = 0; i < points.size(); ++i)
        results[i].point = points[i];
    if (points.empty())
        return results;

    // ---- journal restore ------------------------------------------------
    const u64 signature = gridSignature(points);
    Journal journal(env::flag("VMMX_JOURNAL_SYNC", false));
    if (!policy.journalPath.empty()) {
        u64 validEnd = 0;
        bool needRewrite = false;
        bool valid = journalLoad(policy.journalPath, signature, results, have,
                                 st.jobsResumed, validEnd, st.journalSkipped,
                                 needRewrite);
        if (valid && needRewrite) {
            warn("journal '%s' has damaged entries mid-file; rewriting it",
                 policy.journalPath.c_str());
            valid = false; // rewrite from the restored state below
        }
        if (valid) {
            // Drop any half-written tail so appended entries stay
            // reachable on the next resume.
            std::error_code ec;
            std::filesystem::resize_file(policy.journalPath, validEnd, ec);
            if (ec) {
                warn("cannot drop damaged tail of journal '%s' (%s); "
                     "rewriting it", policy.journalPath.c_str(),
                     ec.message().c_str());
                valid = false;
            } else if (!journal.open(policy.journalPath, false)) {
                fatal("cannot open journal '%s'", policy.journalPath.c_str());
            }
        }
        if (!valid) {
            if (!journal.open(policy.journalPath, true))
                fatal("cannot open journal '%s'", policy.journalPath.c_str());
            journal.writeHeader(signature);
            for (size_t i = 0; i < results.size(); ++i) {
                if (!have[i])
                    continue;
                ResultMsg m;
                m.index = u32(i);
                m.traceLength = results[i].traceLength;
                m.result = results[i].result;
                journal.append(encode(m));
            }
        }
    }

    std::vector<u32> pending;
    for (size_t i = 0; i < points.size(); ++i)
        if (!have[i])
            pending.push_back(u32(i));
    if (pending.empty())
        return results; // fully resumed; nothing to spawn

    // The schedulable unit is the trace group, as for the in-process
    // backends; a journal-resumed prefix simply shrinks the affected
    // groups.  The unit queue is these units in submission order, and
    // an idle worker takes the next one.
    std::vector<std::vector<u32>> units = groupPointsByTrace(points, pending);
    u32 nextUnit = 0;

    // Writing to a worker that died must surface as an EPIPE error code,
    // not kill the driver.
    struct sigaction ignore = {}, oldPipe = {};
    ignore.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ignore, &oldPipe);

    const unsigned n = unsigned(
        std::min<size_t>(policy.processes, units.size()));
    st.workers = n;
    SetupMsg setup; // workerId (the slot) set per worker
    setup.storeDir =
        policy.storeDir.empty() ? TraceStore::defaultDir() : policy.storeDir;
    setup.quiet = vmmx::quiet();
    setup.telemetry = telemetry::enabled();
    std::vector<WorkerProc> workers(n);

    const bool journaled = journal.ok();

    /** Hand an idle worker the next unit, or its Done when the queue is
     *  empty.  @return false when the write fails. */
    auto dispatch = [&](WorkerProc &w) -> bool {
        if (nextUnit == units.size()) {
            w.doneSent = true;
            return wire::writeFrame(w.fd, encodeDone());
        }
        TELEMETRY_SPAN("wire.encode");
        const std::vector<u32> &unit = units[nextUnit++];
        JobGroupMsg group;
        group.indices = unit;
        for (u32 i : unit)
            group.points.push_back(points[i]);
        w.lead = &points[unit.front()];
        w.expect = u32(unit.size());
        ++st.groupsRun;
        return wire::writeFrame(w.fd, encode(group));
    };

    // ---- spawn ----------------------------------------------------------
    for (unsigned slot = 0; slot < n; ++slot) {
        WorkerProc &w = workers[slot];
        if (int err = spawnWorker(policy.execPath, w)) {
            for (auto &other : workers)
                if (other.pid > 0)
                    reap(other, true);
            fatal("cannot start worker '%s': %s", policy.execPath.c_str(),
                  std::strerror(err));
        }
        setup.workerId = slot;
        if (!wire::writeFrame(w.fd, encode(setup)) || !dispatch(w))
            failRun(workers, journaled, w, "write failed during setup",
                    reap(w, false));
    }

    // ---- event loop -----------------------------------------------------
    // A worker is polled until its Stats reply, which it sends only after
    // Done, and Done goes out only once the queue is empty and the
    // worker idle: so the loop ends exactly when every result is in.
    std::vector<u8> frame;
    std::vector<pollfd> pfds;
    std::vector<WorkerProc *> polled;
    for (;;) {
        pfds.clear();
        polled.clear();
        for (auto &w : workers) {
            if (w.statsSeen)
                continue;
            pfds.push_back({w.fd, POLLIN, 0});
            polled.push_back(&w);
        }
        if (polled.empty())
            break;
        if (poll(pfds.data(), nfds_t(pfds.size()), -1) < 0) {
            if (errno == EINTR)
                continue;
            fatal("poll failed: %s", std::strerror(errno));
        }
        for (size_t k = 0; k < pfds.size(); ++k) {
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            WorkerProc &w = *polled[k];
            if (!wire::readFrame(w.fd, frame))
                failRun(workers, journaled, w, "connection closed",
                        reap(w, false));
            switch (frameType(frame)) {
              case Msg::Result: {
                ResultMsg m;
                if (!decode(frame, m) || m.index >= results.size() ||
                    have[m.index] || w.expect == 0)
                    failRun(workers, journaled, w,
                            "malformed or unexpected result frame",
                            reap(w, true));
                results[m.index].result = m.result;
                results[m.index].traceLength = m.traceLength;
                have[m.index] = true;
                ++st.jobsRun;
                if (journaled)
                    journal.append(frame); // same bytes as encode(m)
                if (--w.expect == 0 && !dispatch(w))
                    failRun(workers, journaled, w,
                            "write failed during dispatch", reap(w, false));
                break;
              }
              case Msg::Event: {
                EventMsg m;
                if (!decode(frame, m))
                    failRun(workers, journaled, w, "malformed event frame",
                            reap(w, true));
                telemetry::Tracer &tracer = telemetry::Tracer::instance();
                tracer.setProcessName(m.pid, "worker slot " +
                                                 std::to_string(m.workerId));
                for (telemetry::SpanRecord &s : m.spans)
                    tracer.record(std::move(s));
                // Workers only emit Event frames when setup.telemetry
                // was on, and the driver set that from enabled().
                // vmmx_lint: allow(telemetry-guard)
                telemetry::Registry &reg = telemetry::Registry::instance();
                for (telemetry::UnitRecord &u : m.units)
                    reg.addUnit(std::move(u));
                break;
              }
              case Msg::Stats: {
                StatsMsg m;
                if (!decode(frame, m) || !w.doneSent)
                    failRun(workers, journaled, w,
                            "malformed or unexpected stats frame",
                            reap(w, true));
                st.generations += m.generations;
                st.hits += m.hits;
                st.diskLoads += m.diskLoads;
                st.storeSaves += m.storeSaves;
                st.bytesResident += m.bytesResident;
                st.decodes += m.decodes;
                st.decodedHits += m.decodedHits;
                st.decodedBytes += m.decodedBytes;
                w.statsSeen = true;
                break;
              }
              case Msg::Error: {
                std::string what;
                decodeError(frame, what);
                failRun(workers, journaled, w, "worker error: " + what,
                        reap(w, false));
              }
              default:
                failRun(workers, journaled, w,
                        "unexpected frame type " +
                            std::to_string(unsigned(frameType(frame))),
                        reap(w, true));
            }
        }
    }

    // ---- teardown --------------------------------------------------------
    // A worker that answered everything and then exited abnormally still
    // fails the run: a crash in teardown code is a bug to see.
    for (auto &w : workers)
        if (std::string status = reap(w, false); status != "exit 0")
            failRun(workers, journaled, w,
                    "exited abnormally after its Stats reply", status);
    sigaction(SIGPIPE, &oldPipe, nullptr);
    vmmx_assert(st.jobsRun == pending.size(),
                "distributed sweep lost grid points");
    return results;
}

} // namespace vmmx::dist
