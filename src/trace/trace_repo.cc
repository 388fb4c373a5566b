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

TraceRepository::TraceRepository(TraceStore *store, u64 retiredRaw,
                                 u64 retiredDecoded)
    : store_(store)
{
    vmmx_assert(retiredRaw == 0 && retiredDecoded == 0,
                "the trace repository keeps no RAM budgets");
}

TraceRepository &
TraceRepository::instance()
{
    // The store is opt-in for the process-wide repository: a process
    // should not silently start writing files unless the user asked
    // for a store.
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
    // Built under the lock, so a concurrent lookup of any key waits and
    // each key is built once.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = raw_.find(key);
    if (it != raw_.end()) {
        ++rawHits_;
        return TraceHandle(it->second);
    }

    const std::string label =
        telemetry::enabled() ? key.name : std::string();
    SharedTrace trace;
    if (store_) {
        TELEMETRY_SPAN("trace.diskLoad", label);
        trace = store_->load(key);
    }
    if (trace) {
        ++diskLoads_;
    } else {
        {
            TELEMETRY_SPAN("trace.generate", label);
            trace = std::make_shared<const std::vector<InstRecord>>(
                generateTrace(key));
        }
        ++generations_;
        if (store_)
            store_->save(key, *trace);
    }
    rawBytes_ += trace->size() * sizeof(InstRecord);
    raw_.emplace(key, trace);
    return TraceHandle(std::move(trace));
}

TraceRepository::DecodedHandle
TraceRepository::decoded(const TraceKey &key)
{
    TraceHandle trace = raw(key);
    TELEMETRY_SPAN("trace.decode", telemetry::enabled() ? key.name
                                                        : std::string());
    ++decodes_;
    return DecodedHandle(decodeStream(*trace));
}

void
TraceRepository::stream(const TraceKey &key, TraceSink &sink)
{
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

// ---- statistics ----------------------------------------------------------

TraceRepository::TierStats
TraceRepository::rawStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {rawHits_, raw_.size(), rawBytes_};
}

TraceRepository::TierStats
TraceRepository::decodedStats() const
{
    return {0, decodes_.load(), 0};
}

void
TraceRepository::publishMetrics() const
{
    if (!telemetry::enabled())
        return;
    telemetry::Registry &reg = telemetry::Registry::instance();
    TierStats rawT = rawStats();
    reg.setGauge("repo.generations", generations());
    reg.setGauge("repo.diskLoads", diskLoads());
    reg.setGauge("repo.storeSaves", store_ ? store_->saves() : 0);
    reg.setGauge("repo.raw.hits", rawT.hits);
    reg.setGauge("repo.raw.fills", rawT.fills);
    reg.setGauge("repo.raw.bytes", rawT.bytes);
    reg.setGauge("repo.decodes", decodes_.load());
}

} // namespace vmmx
