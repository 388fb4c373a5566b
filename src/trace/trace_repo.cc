#include "trace/trace_repo.hh"

#include <cstdlib>

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

/**
 * One trace across all RAM tiers.  The build mutex serializes
 * materialization per entry; the atomics are readable without it (the
 * eviction candidate scan), and bytes/pointers are written only under
 * it.  Pin counters are incremented under the build mutex and
 * decremented lock-free by handle destructors; eviction re-reads them
 * after winning a try_lock on the build mutex, so a pin taken before
 * the lookup returned can never be missed.
 */
struct TraceRepository::Entry
{
    std::mutex build;
    TraceKey key;

    SharedTrace raw;       ///< tier 1 (null until filled / after eviction)
    SharedDecoded decoded; ///< tier 2 (null until filled / after eviction)
    std::atomic<bool> rawResident{false};
    std::atomic<bool> decodedResident{false};
    std::atomic<bool> onDisk{false};
    std::atomic<u64> lastUseRaw{0};
    std::atomic<u64> lastUseDecoded{0};
    std::atomic<u32> rawPins{0};
    std::atomic<u32> decodedPins{0};
    u64 rawBytes = 0;     // written under build before rawResident
    u64 decodedBytes = 0; // written under build before decodedResident
};

// ---- pin handles ---------------------------------------------------------

TraceRepository::TraceHandle::TraceHandle(SharedTrace t,
                                          std::shared_ptr<Entry> e)
    : trace_(std::move(t)), entry_(std::move(e))
{
}

TraceRepository::TraceHandle::TraceHandle(TraceHandle &&o) noexcept =
    default;

TraceRepository::TraceHandle &
TraceRepository::TraceHandle::operator=(TraceHandle &&o) noexcept
{
    if (this != &o) {
        release();
        trace_ = std::move(o.trace_);
        entry_ = std::move(o.entry_);
        o.trace_ = nullptr;
        o.entry_ = nullptr;
    }
    return *this;
}

TraceRepository::TraceHandle::~TraceHandle()
{
    release();
}

void
TraceRepository::TraceHandle::release()
{
    if (entry_)
        entry_->rawPins.fetch_sub(1, std::memory_order_release);
    entry_ = nullptr;
    trace_ = nullptr;
}

TraceRepository::DecodedHandle::DecodedHandle(SharedDecoded s,
                                              std::shared_ptr<Entry> e)
    : stream_(std::move(s)), entry_(std::move(e))
{
}

TraceRepository::DecodedHandle::DecodedHandle(DecodedHandle &&o) noexcept =
    default;

TraceRepository::DecodedHandle &
TraceRepository::DecodedHandle::operator=(DecodedHandle &&o) noexcept
{
    if (this != &o) {
        release();
        stream_ = std::move(o.stream_);
        entry_ = std::move(o.entry_);
        o.stream_ = nullptr;
        o.entry_ = nullptr;
    }
    return *this;
}

TraceRepository::DecodedHandle::~DecodedHandle()
{
    release();
}

void
TraceRepository::DecodedHandle::release()
{
    if (entry_)
        entry_->decodedPins.fetch_sub(1, std::memory_order_release);
    entry_ = nullptr;
    stream_ = nullptr;
}

// ---- construction --------------------------------------------------------

TraceRepository::TraceRepository(TraceStore *store, u64 rawBudgetBytes,
                                 u64 decodedBudgetBytes)
    : store_(store),
      rawBudget_(rawBudgetBytes),
      decodedBudget_(decodedBudgetBytes)
{
}

TraceRepository::~TraceRepository() = default;

TraceRepository &
TraceRepository::instance()
{
    // The disk tier is opt-in for the process-wide repository: benches
    // that pin references for the process lifetime should not silently
    // start writing files unless the user asked for a store.
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

u64
TraceRepository::budgetFromEnv(const char *envVar)
{
    return env::byteSize(envVar);
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

SharedTrace
TraceRepository::materializeRaw(Entry &e)
{
    if (store_) {
        TELEMETRY_SPAN("trace.diskLoad", telemetry::enabled()
                                             ? e.key.name
                                             : std::string());
        if (SharedTrace t = store_->load(e.key)) {
            e.raw = std::move(t);
            e.rawBytes = e.raw->size() * sizeof(InstRecord);
            e.onDisk = true;
            e.rawResident = true;
            bytesRaw_ += e.rawBytes;
            ++diskLoads_;
            return e.raw;
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
    e.rawBytes = e.raw->size() * sizeof(InstRecord);
    e.rawResident = true;
    bytesRaw_ += e.rawBytes;
    ++generations_;
    if (store_ && store_->save(e.key, *e.raw))
        e.onDisk = true;
    return e.raw;
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
    SharedTrace t = entry->raw;
    entry->rawPins.fetch_add(1, std::memory_order_relaxed);
    touchRawAndEnforce(entry.get());
    return TraceHandle(std::move(t), std::move(entry));
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
    } else {
        // Fill from tier 1 (itself filling from disk or generation);
        // the raw copy stays resident for later raw() lookups and is
        // reclaimed by its own budget, not by this one.
        SharedTrace src = entry->raw;
        if (!src)
            src = materializeRaw(*entry);
        TELEMETRY_SPAN("trace.decode", telemetry::enabled()
                                           ? key.name
                                           : std::string());
        entry->decoded =
            std::make_shared<const DecodedStream>(decodeStream(*src));
        entry->decodedBytes = entry->decoded->bytes();
        entry->decodedResident = true;
        bytesDecoded_ += entry->decodedBytes;
        ++decodes_;
        // The raw tier was touched by the fill even on a decoded miss.
        entry->lastUseRaw = ++useClock_;
    }
    SharedDecoded s = entry->decoded;
    entry->decodedPins.fetch_add(1, std::memory_order_relaxed);
    touchDecodedAndEnforce(entry.get());
    return DecodedHandle(std::move(s), std::move(entry));
}

// ---- budgets -------------------------------------------------------------

void
TraceRepository::touchRawAndEnforce(Entry *keep)
{
    keep->lastUseRaw = ++useClock_;
    enforceBudgets(keep);
}

void
TraceRepository::touchDecodedAndEnforce(Entry *keep)
{
    keep->lastUseDecoded = ++useClock_;
    enforceBudgets(keep);
}

void
TraceRepository::enforceBudgets(Entry *keep)
{
    u64 rawBudget = rawBudget_.load();
    u64 decodedBudget = decodedBudget_.load();
    bool overRaw = rawBudget != 0 && bytesRaw_.load() > rawBudget;
    bool overDecoded =
        decodedBudget != 0 && bytesDecoded_.load() > decodedBudget;
    if (!overRaw && !overDecoded)
        return;

    std::lock_guard<std::mutex> lock(registryMu_);
    for (;;) {
        overRaw = rawBudget != 0 && bytesRaw_.load() > rawBudget;
        overDecoded =
            decodedBudget != 0 && bytesDecoded_.load() > decodedBudget;
        if (!overRaw && !overDecoded)
            return;

        // One LRU spanning both RAM tiers: the victim is the (entry,
        // tier) pair with the oldest use stamp among tiers over their
        // budget.  A tier copy is evictable when it is resident,
        // unpinned, safe to drop (raw: mirrored on disk; decoded:
        // always, it re-materializes from tier 1), and not part of the
        // entry being returned right now.
        Entry *victim = nullptr;
        bool victimDecoded = false;
        u64 oldest = ~0ull;
        auto consider = [&](Entry *e) {
            if (e == keep)
                return;
            // One load per stamp: a concurrent touch between compare
            // and assign would otherwise inflate `oldest` past the
            // value that won, skewing the LRU choice.
            if (overRaw && e->rawResident.load() && e->onDisk.load() &&
                e->rawPins.load() == 0) {
                u64 use = e->lastUseRaw.load();
                if (use < oldest) {
                    oldest = use;
                    victim = e;
                    victimDecoded = false;
                }
            }
            if (overDecoded && e->decodedResident.load() &&
                e->decodedPins.load() == 0) {
                u64 use = e->lastUseDecoded.load();
                if (use < oldest) {
                    oldest = use;
                    victim = e;
                    victimDecoded = true;
                }
            }
        };
        for (auto &kv : keyed_)
            consider(kv.second.get());
        if (!victim)
            return; // everything left is pinned or not safely droppable
        // try_lock is load-bearing: lookups hold an entry lock while
        // calling into here for registryMu_, so blocking on the
        // victim's entry lock here would invert the two lock orders and
        // can deadlock.  A busy victim just ends this eviction pass.
        if (!victim->build.try_lock())
            return;
        // Re-check under the lock: a pin may have landed between the
        // candidate scan and the lock.
        if (victimDecoded) {
            if (victim->decodedResident.load() &&
                victim->decodedPins.load() == 0) {
                victim->decoded.reset();
                victim->decodedResident = false;
                bytesDecoded_ -= victim->decodedBytes;
                ++decodedEvictions_;
            }
        } else {
            if (victim->rawResident.load() && victim->rawPins.load() == 0) {
                victim->raw.reset();
                victim->rawResident = false;
                bytesRaw_ -= victim->rawBytes;
                ++rawEvictions_;
            }
        }
        victim->build.unlock();
    }
}

// ---- statistics ----------------------------------------------------------

TraceRepository::TierStats
TraceRepository::rawStats() const
{
    return {rawHits_.load(), generations_.load() + diskLoads_.load(),
            rawEvictions_.load(), bytesRaw_.load()};
}

TraceRepository::TierStats
TraceRepository::decodedStats() const
{
    return {decodedHits_.load(), decodes_.load(), decodedEvictions_.load(),
            bytesDecoded_.load()};
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
    reg.setGauge("repo.raw.evictions", rawT.evictions);
    reg.setGauge("repo.raw.bytes", rawT.bytes);
    reg.setGauge("repo.decodes", decT.fills);
    reg.setGauge("repo.decoded.hits", decT.hits);
    reg.setGauge("repo.decoded.evictions", decT.evictions);
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
    decodes_ = 0;
    rawHits_ = 0;
    decodedHits_ = 0;
    rawEvictions_ = 0;
    decodedEvictions_ = 0;
}

} // namespace vmmx
