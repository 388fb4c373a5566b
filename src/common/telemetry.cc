#include "common/telemetry.hh"

#include <algorithm>
#include <cinttypes>
#include <ctime>
#include <iomanip>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

namespace vmmx::telemetry
{

namespace detail
{
std::atomic<bool> gEnabled{false};
} // namespace detail

namespace
{

/** Per-thread ordinal for span tids: small, stable within a process,
 *  and deterministic enough for a readable timeline (thread 0 is the
 *  first thread that recorded a span). */
u32
threadOrdinal()
{
    static std::atomic<u32> next{0};
    thread_local u32 tid = next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

std::atomic<ProgressMode> gProgressMode{ProgressMode::Off};
std::FILE *gProgressStream = nullptr; // null = stderr

} // namespace

void
setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

u64
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return u64(ts.tv_sec) * 1000000000ull + u64(ts.tv_nsec);
}

const char *
sanitizerName()
{
#ifdef VMMX_SANITIZE_NAME
    if (VMMX_SANITIZE_NAME[0] != '\0')
        return VMMX_SANITIZE_NAME;
#endif
    return "none";
}

u64
peakRssKiB()
{
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    return u64(self.ru_maxrss); // KiB on Linux
}

// ---- span tracing --------------------------------------------------------

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

void
Tracer::record(SpanRecord &&rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
}

std::vector<SpanRecord>
Tracer::drain()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> out;
    out.swap(spans_);
    return out;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
    processNames_.clear();
}

void
Tracer::setProcessName(u64 pid, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    processNames_[pid] = name;
}

void
Tracer::writeTraceEvents(std::ostream &os) const
{
    std::vector<SpanRecord> spans;
    std::map<u64, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans = spans_;
        names = processNames_;
    }
    // Deterministic layout: grouped by pid, time-ordered within, with
    // timestamps rebased to the earliest span so the timeline starts
    // near zero.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         return a.startNs < b.startNs;
                     });
    u64 base = ~u64(0);
    for (const SpanRecord &s : spans)
        base = std::min(base, s.startNs);
    if (base == ~u64(0))
        base = 0;

    os << "[\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (const auto &[pid, name] : names) {
        sep();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(name)
           << "\"}}";
    }
    os << std::fixed << std::setprecision(3);
    for (const SpanRecord &s : spans) {
        sep();
        os << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"cat\":\"vmmx\",\"ph\":\"X\",\"ts\":"
           << double(s.startNs - base) / 1000.0
           << ",\"dur\":" << double(s.durNs) / 1000.0
           << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid << ",\"args\":{";
        if (!s.detail.empty())
            os << "\"detail\":\"" << jsonEscape(s.detail) << "\",";
        os << "\"workerId\":" << s.workerId << "}}";
    }
    os << "\n]\n";
}

void
Span::begin(const char *name, std::string &&detail)
{
    live_ = true;
    rec_.name = name;
    rec_.detail = std::move(detail);
    rec_.pid = u64(::getpid());
    rec_.tid = threadOrdinal();
    rec_.startNs = nowNs();
}

void
Span::end()
{
    rec_.durNs = nowNs() - rec_.startNs;
    Tracer::instance().record(std::move(rec_));
}

// ---- metrics registry ----------------------------------------------------

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

void
Registry::addCounter(const std::string &name, u64 delta)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += delta;
}

void
Registry::setGauge(const std::string &name, u64 value)
{
    std::lock_guard<std::mutex> lock(mu_);
    gauges_[name] = value;
}

void
Registry::addUnit(UnitRecord &&rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    units_.push_back(std::move(rec));
}

std::vector<UnitRecord>
Registry::drainUnits()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<UnitRecord> out;
    out.swap(units_);
    return out;
}

std::vector<UnitRecord>
Registry::units() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return units_;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
    units_.clear();
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    snap.values = counters_;
    for (const auto &[name, v] : gauges_)
        snap.values[name] = v;
    return snap;
}

void
Registry::dumpText(std::ostream &os) const
{
    MetricsSnapshot snap = snapshot();
    for (const auto &[name, v] : snap.values)
        os << name << ' ' << v << '\n';
    os << "host.peakRssKiB " << peakRssKiB() << '\n';
    std::vector<UnitRecord> us = units();
    std::ostringstream num;
    num << std::fixed << std::setprecision(1);
    for (const UnitRecord &u : us) {
        num.str("");
        num << u.pointsPerSec();
        os << "unit " << u.label << " points " << u.points << " records "
           << u.records << " wallNs " << u.wallNs << " points/s "
           << num.str();
        if (!u.simd.empty())
            os << " simd " << u.simd;
        os << '\n';
    }
}

void
Registry::dumpJson(std::ostream &os) const
{
    MetricsSnapshot snap = snapshot();
    // Nest by the first dotted component so consumers address sections
    // ("repo", "dist", ...) directly; undotted names become top-level
    // scalars.  std::map keeps every ordering deterministic.
    std::map<std::string, std::map<std::string, u64>> sections;
    std::map<std::string, u64> toplevel;
    for (const auto &[name, v] : snap.values) {
        size_t dot = name.find('.');
        if (dot == std::string::npos || dot == 0 ||
            dot + 1 == name.size()) {
            toplevel[name] = v;
        } else {
            sections[name.substr(0, dot)][name.substr(dot + 1)] = v;
        }
    }

    os << "{\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (const auto &[name, v] : toplevel) {
        sep();
        os << "  \"" << jsonEscape(name) << "\": " << v;
    }
    for (const auto &[section, values] : sections) {
        sep();
        os << "  \"" << jsonEscape(section) << "\": {";
        bool f2 = true;
        for (const auto &[name, v] : values) {
            os << (f2 ? "\n" : ",\n") << "    \"" << jsonEscape(name)
               << "\": " << v;
            f2 = false;
        }
        os << "\n  }";
    }
    sep();
    os << "  \"host\": {\n    \"peakRssKiB\": " << peakRssKiB()
       << ",\n    \"sanitizer\": \"" << jsonEscape(sanitizerName())
       << "\"\n  }";
    sep();
    os << "  \"units\": [";
    std::vector<UnitRecord> us = units();
    std::ostringstream pps;
    pps << std::fixed << std::setprecision(1);
    for (size_t i = 0; i < us.size(); ++i) {
        const UnitRecord &u = us[i];
        pps.str("");
        pps << u.pointsPerSec();
        os << (i ? ",\n" : "\n") << "    {\"traceHash\":" << u.traceHash
           << ",\"label\":\"" << jsonEscape(u.label)
           << "\",\"points\":" << u.points << ",\"records\":" << u.records
           << ",\"wallNs\":" << u.wallNs << ",\"pointsPerSec\":"
           << pps.str() << ",\"workerId\":" << u.workerId
           << ",\"simd\":\"" << jsonEscape(u.simd) << "\"}";
    }
    os << (us.empty() ? "]" : "\n  ]") << "\n}\n";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u8(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(u8(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// ---- live progress -------------------------------------------------------

void
setProgress(ProgressMode mode, std::FILE *stream)
{
    gProgressStream = stream;
    gProgressMode.store(mode, std::memory_order_relaxed);
}

ProgressMode
progressMode()
{
    return gProgressMode.load(std::memory_order_relaxed);
}

Progress::Progress(std::string what, u64 total)
    : what_(std::move(what)), total_(total)
{
    if (progressMode() != ProgressMode::Off)
        startNs_ = nowNs();
}

void
Progress::update(u64 done, const std::string &extra)
{
    if (progressMode() == ProgressMode::Off)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    constexpr u64 minGapNs = 200'000'000; // at most ~5 lines a second
    u64 now = nowNs();
    if (lastEmitNs_ != 0 && now - lastEmitNs_ < minGapNs)
        return;
    lastEmitNs_ = now;
    emit(done, extra, false);
}

void
Progress::finish(u64 done)
{
    if (progressMode() == ProgressMode::Off)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    emit(done, std::string(), true);
}

void
Progress::emit(u64 done, const std::string &extra, bool final)
{
    std::FILE *out = gProgressStream ? gProgressStream : stderr;
    double elapsedS = double(nowNs() - startNs_) / 1e9;
    double rate = elapsedS > 0 ? double(done) / elapsedS : 0.0;
    double etaS =
        (rate > 0 && total_ > done) ? double(total_ - done) / rate : 0.0;
    if (progressMode() == ProgressMode::Jsonl) {
        std::fprintf(out,
                     "{\"type\":\"%s\",\"what\":\"%s\",\"done\":%" PRIu64
                     ",\"total\":%" PRIu64
                     ",\"elapsedS\":%.3f,\"pointsPerSec\":%.1f,"
                     "\"etaS\":%.1f%s%s%s}\n",
                     final ? "done" : "progress",
                     jsonEscape(what_).c_str(), done, total_, elapsedS,
                     rate, etaS, extra.empty() ? "" : ",\"extra\":\"",
                     extra.empty() ? "" : jsonEscape(extra).c_str(),
                     extra.empty() ? "" : "\"");
    } else {
        double pct = total_ ? 100.0 * double(done) / double(total_) : 100.0;
        std::fprintf(out,
                     "progress: %s %" PRIu64 "/%" PRIu64
                     " (%.1f%%) %.1f points/s eta %.1fs%s%s%s\n",
                     what_.c_str(), done, total_, pct, rate, etaS,
                     extra.empty() ? "" : " [", extra.c_str(),
                     extra.empty() ? "" : "]");
    }
    std::fflush(out);
}

} // namespace vmmx::telemetry
