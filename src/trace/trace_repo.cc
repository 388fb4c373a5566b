#include "trace/trace_repo.hh"

#include "apps/app.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/memimage.hh"
#include "common/telemetry.hh"
#include "common/rng.hh"
#include "kernels/kernel.hh"
#include "trace/program.hh"

namespace vmmx
{

namespace
{

/** Prepare the workload @p key names in @p mem and emit it into @p p. */
void
emitWorkload(const TraceKey &key, MemImage &mem, Program &p)
{
    Rng rng(key.seed);
    if (key.isApp) {
        auto a = makeApp(key.name);
        a->prepare(mem, rng);
        a->emit(p);
    } else {
        auto k = makeKernel(key.name);
        k->prepare(mem, rng);
        k->emit(p);
    }
}

/** Generated blocks on their way to a sink, copied into a store
 *  writer first (the write-through of a streamed generation). */
class StoreTee : public TraceSink
{
  public:
    StoreTee(TraceStore::Writer &out, TraceSink &next)
        : out_(out), next_(next)
    {
    }
    void
    put(std::vector<InstRecord> &block) override
    {
        out_.add(block);
        next_.put(block);
    }
    void restart() override { next_.restart(); }

  private:
    TraceStore::Writer &out_;
    TraceSink &next_;
};

} // namespace

std::vector<InstRecord>
generateTrace(const TraceKey &key)
{
    MemImage mem(key.imageBytes);
    Program p(mem, key.kind);
    emitWorkload(key, mem, p);
    return p.takeTrace();
}

void
generateTrace(const TraceKey &key, TraceSink &sink)
{
    MemImage mem(key.imageBytes);
    Program p(mem, key.kind);
    p.streamTo(sink);
    emitWorkload(key, mem, p);
    p.finishStream();
}

/** One trace's RAM tiers.  The build mutex serializes materialization
 *  per entry; both pointers are read and written only under it. */
struct TraceRepository::Entry
{
    std::mutex build;
    TraceKey key;

    SharedTrace raw;       ///< tier 1 (null until filled)
    SharedDecoded decoded; ///< tier 2 (null until filled)
};

TraceRepository::TraceRepository(TraceStore *store, u64 retiredRaw,
                                 u64 retiredDecoded)
    : store_(store)
{
    vmmx_assert(retiredRaw == 0 && retiredDecoded == 0,
                "the trace repository keeps no RAM budgets");
}

TraceRepository::~TraceRepository() = default;

TraceRepository &
TraceRepository::instance()
{
    // The disk tier is opt-in for the process-wide repository: a
    // process should not silently start writing files unless the user
    // asked for a store.
    static TraceStore *store = []() -> TraceStore * {
        std::string dir = env::str("VMMX_TRACE_STORE");
        if (dir.empty())
            return nullptr;
        static TraceStore s(dir);
        return &s;
    }();
    static TraceRepository repo(store);
    return repo;
}

// ---- lookups -------------------------------------------------------------

std::shared_ptr<TraceRepository::Entry>
TraceRepository::entryFor(const TraceKey &key)
{
    std::lock_guard<std::mutex> lock(registryMu_);
    auto it = keyed_.find(key);
    if (it == keyed_.end()) {
        auto e = std::make_shared<Entry>();
        e->key = key;
        it = keyed_.emplace(key, std::move(e)).first;
    }
    return it->second;
}

void
TraceRepository::materializeRaw(Entry &e)
{
    ++rawFills_;
    if (store_) {
        TELEMETRY_SPAN("trace.diskLoad", telemetry::enabled()
                                             ? e.key.name
                                             : std::string());
        if (SharedTrace t = store_->load(e.key)) {
            e.raw = std::move(t);
            bytesRaw_ += e.raw->size() * sizeof(InstRecord);
            ++diskLoads_;
            return;
        }
    }

    std::vector<InstRecord> trace;
    {
        TELEMETRY_SPAN("trace.generate", telemetry::enabled()
                                             ? e.key.name
                                             : std::string());
        trace = generateTrace(e.key);
    }

    e.raw = std::make_shared<const std::vector<InstRecord>>(std::move(trace));
    bytesRaw_ += e.raw->size() * sizeof(InstRecord);
    ++generations_;
    if (store_)
        store_->save(e.key, *e.raw);
}

TraceRepository::TraceHandle
TraceRepository::kernel(const std::string &name, SimdKind kind,
                        u32 imageBytes, u64 seed)
{
    return raw({false, name, kind, imageBytes, seed});
}

TraceRepository::TraceHandle
TraceRepository::app(const std::string &name, SimdKind kind, u32 imageBytes,
                     u64 seed)
{
    return raw({true, name, kind, imageBytes, seed});
}

TraceRepository::TraceHandle
TraceRepository::raw(const TraceKey &key)
{
    std::shared_ptr<Entry> entry = entryFor(key);

    std::lock_guard<std::mutex> build(entry->build);
    if (entry->raw)
        ++rawHits_;
    else
        materializeRaw(*entry);
    return TraceHandle(entry->raw);
}

void
TraceRepository::stream(const TraceKey &key, TraceSink &sink)
{
    // A copy an earlier raw() lookup left resident replays in place.
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(registryMu_);
        auto it = keyed_.find(key);
        if (it != keyed_.end())
            entry = it->second;
    }
    if (entry) {
        SharedTrace resident;
        {
            std::lock_guard<std::mutex> build(entry->build);
            resident = entry->raw;
        }
        if (resident) {
            ++rawHits_;
            sink.borrow(*resident);
            return;
        }
    }

    const std::string label =
        telemetry::enabled() ? key.name : std::string();
    if (store_) {
        TELEMETRY_SPAN("trace.diskLoad", label);
        if (store_->stream(key, sink)) {
            ++diskLoads_;
            return;
        }
    }
    TELEMETRY_SPAN("trace.generate", label);
    ++generations_;
    if (!store_) {
        generateTrace(key, sink);
        return;
    }
    TraceStore::Writer out(*store_, key);
    StoreTee tee(out, sink);
    generateTrace(key, tee);
    out.commit();
}

TraceRepository::DecodedHandle
TraceRepository::decoded(const TraceKey &key)
{
    std::shared_ptr<Entry> entry = entryFor(key);

    std::lock_guard<std::mutex> build(entry->build);
    if (entry->decoded) {
        ++decodedHits_;
        return DecodedHandle(entry->decoded);
    }
    // Fill from tier 1 (itself filling from disk or generation); the
    // raw copy stays resident for later raw() lookups.
    if (!entry->raw)
        materializeRaw(*entry);
    TELEMETRY_SPAN("trace.decode", telemetry::enabled() ? key.name
                                                        : std::string());
    entry->decoded =
        std::make_shared<const DecodedStream>(decodeStream(*entry->raw));
    bytesDecoded_ += entry->decoded->bytes();
    ++decodes_;
    return DecodedHandle(entry->decoded);
}

// ---- statistics ----------------------------------------------------------

TraceRepository::TierStats
TraceRepository::rawStats() const
{
    return {rawHits_.load(), rawFills_.load(), bytesRaw_.load()};
}

TraceRepository::TierStats
TraceRepository::decodedStats() const
{
    return {decodedHits_.load(), decodes_.load(), bytesDecoded_.load()};
}

size_t
TraceRepository::size() const
{
    std::lock_guard<std::mutex> lock(registryMu_);
    return keyed_.size();
}

void
TraceRepository::publishMetrics() const
{
    if (!telemetry::enabled())
        return;
    telemetry::Registry &reg = telemetry::Registry::instance();
    TierStats rawT = rawStats();
    TierStats decT = decodedStats();
    reg.setGauge("repo.traces", size());
    reg.setGauge("repo.generations", generations());
    reg.setGauge("repo.diskLoads", diskLoads());
    reg.setGauge("repo.storeSaves", store_ ? store_->saves() : 0);
    reg.setGauge("repo.raw.hits", rawT.hits);
    reg.setGauge("repo.raw.fills", rawT.fills);
    reg.setGauge("repo.raw.bytes", rawT.bytes);
    reg.setGauge("repo.decodes", decT.fills);
    reg.setGauge("repo.decoded.hits", decT.hits);
    reg.setGauge("repo.decoded.bytes", decT.bytes);
}

void
TraceRepository::clear()
{
    std::lock_guard<std::mutex> lock(registryMu_);
    keyed_.clear();
    bytesRaw_ = 0;
    bytesDecoded_ = 0;
    generations_ = 0;
    diskLoads_ = 0;
    rawFills_ = 0;
    decodes_ = 0;
    rawHits_ = 0;
    decodedHits_ = 0;
}

} // namespace vmmx
