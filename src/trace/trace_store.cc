#include "trace/trace_store.hh"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"

namespace fs = std::filesystem;

namespace vmmx
{

namespace
{

constexpr u32 storeMagic = 0x52544d56; // "VMTR" little-endian
constexpr u32 storeVersion = 1;

} // namespace

std::string
TraceStore::defaultDir()
{
    if (std::string dir = env::str("VMMX_TRACE_STORE"); !dir.empty())
        return dir;
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec)
        tmp = "/tmp";
    // Per-user: a fixed shared name under /tmp would be owned by
    // whichever user swept first and silently unwritable for the rest.
    return (tmp / ("vmmx-trace-store-" + std::to_string(::getuid())))
        .string();
}

TraceStore::TraceStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create trace store directory '%s': %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
TraceStore::path(const TraceKey &key) const
{
    // Human-readable prefix plus a hash of the full key: collision-free
    // even if a future workload name contains separator characters.
    wire::Writer kw;
    serialize(kw, key);
    u64 h = wire::fnv1a(kw.buffer().data(), kw.size());

    std::ostringstream name;
    name << (key.isApp ? "app-" : "kernel-");
    for (char c : key.name)
        name << (std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
    name << '-' << vmmx::name(key.kind) << '-' << std::hex << h << ".vmtr";
    return (fs::path(dir_) / name.str()).string();
}

void
TraceStore::reject(const TraceKey &key, const char *why)
{
    warn("trace store: '%s' %s; regenerating", path(key).c_str(), why);
    ++misses_;
}

bool
TraceStore::open(const TraceKey &key, std::vector<u8> &bytes,
                 wire::Reader &r)
{
    const std::string file = path(key);
    std::ifstream in(file, std::ios::binary);
    if (!in) {
        ++misses_;
        return false;
    }
    // One sized read.  A path without a size (not a regular file) reads
    // as empty and a short read keeps what arrived; the checks below
    // reject both.
    std::error_code ec;
    auto size = fs::file_size(file, ec);
    bytes.resize(ec ? 0 : size_t(size));
    in.read(asChars(bytes.data()), std::streamsize(bytes.size()));
    bytes.resize(size_t(in.gcount()));
    in.close();

    // Checksum covers everything before the trailing fixed64.
    if (bytes.size() < 8 + 8) {
        reject(key, "is truncated");
        return false;
    }
    wire::Reader tail(bytes.data() + bytes.size() - 8, 8);
    if (tail.fixed64() != wire::fnv1a(bytes.data(), bytes.size() - 8)) {
        reject(key, "fails its checksum");
        return false;
    }

    r = wire::Reader(bytes.data(), bytes.size() - 8);
    TraceKey stored;
    if (r.fixed32() != storeMagic || r.fixed32() != storeVersion ||
        !deserialize(r, stored) || !(stored == key)) {
        reject(key, ("is not a stored trace for " + key.describe()).c_str());
        return false;
    }
    return true;
}

SharedTrace
TraceStore::load(const TraceKey &key)
{
    std::vector<u8> bytes;
    wire::Reader r(nullptr, 0);
    if (!open(key, bytes, r))
        return nullptr;
    auto trace = std::make_shared<std::vector<InstRecord>>();
    if (!decodeTrace(r, *trace) || !r.atEnd()) {
        reject(key, "holds malformed records");
        return nullptr;
    }
    return trace;
}

bool
TraceStore::stream(const TraceKey &key, TraceSink &sink)
{
    std::vector<u8> bytes;
    wire::Reader r(nullptr, 0);
    if (!open(key, bytes, r))
        return false;
    TraceDecoder dec;
    std::vector<InstRecord> block;
    bool ok = dec.begin(r);
    bool started = false;
    while (ok && dec.remaining() > 0) {
        ok = dec.next(r, block, traceBlockRecords);
        if (ok) {
            sink.put(block);
            started = true;
        }
    }
    if (!ok || !r.atEnd()) {
        // The checksum only proves the bytes are the ones written;
        // records that do not decode must not leave a partial trace in
        // the sink.
        reject(key, "holds malformed records");
        if (started)
            sink.restart();
        return false;
    }
    return true;
}

bool
TraceStore::save(const TraceKey &key, const std::vector<InstRecord> &trace)
{
    Writer out(*this, key);
    out.add(trace);
    return out.commit();
}

bool
TraceStore::Writer::commit()
{
    wire::Writer w;
    w.fixed32(storeMagic);
    w.fixed32(storeVersion);
    serialize(w, key_);
    enc_.finish(w);
    w.fixed64(wire::fnv1a(w.buffer().data(), w.size()));

    // A per-writer temporary name: concurrent writers of one key, in
    // this process or another, each publish a complete file.
    static std::atomic<u64> writers{0};
    const std::string file = store_.path(key_);
    const std::string tmp = file + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(writers++);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out || !out.write(asChars(w.buffer().data()),
                               std::streamsize(w.size()))) {
            warn("trace store: cannot write '%s'", tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, file, ec);
    if (ec) {
        warn("trace store: cannot publish '%s': %s", file.c_str(),
             ec.message().c_str());
        std::remove(tmp.c_str());
        return false;
    }
    ++store_.saves_;
    return true;
}

} // namespace vmmx
