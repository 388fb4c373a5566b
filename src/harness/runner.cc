#include "harness/runner.hh"

#include <algorithm>

namespace vmmx
{

/**
 * The per-configuration state of one batched pass: one private
 * MemorySystem + SimContext per configuration, so contexts share
 * nothing mutable and the batched pass is bit-identical to N
 * independent runs.
 */
struct MachineBatch
{
    std::vector<std::unique_ptr<MemorySystem>> mems;
    std::vector<std::unique_ptr<SimContext>> ctxs;
    std::vector<SimContext *> span;

    explicit MachineBatch(std::span<const MachineConfig> machines)
    {
        mems.reserve(machines.size());
        ctxs.reserve(machines.size());
        span.reserve(machines.size());
        for (const MachineConfig &m : machines) {
            mems.push_back(std::make_unique<MemorySystem>(m.mem));
            ctxs.push_back(
                std::make_unique<SimContext>(m.core, mems.back().get()));
            span.push_back(ctxs.back().get());
        }
    }

    std::vector<RunResult> collect()
    {
        std::vector<RunResult> results(ctxs.size());
        for (size_t i = 0; i < ctxs.size(); ++i) {
            RunResult &r = results[i];
            r.core = ctxs[i]->finish();
            r.l1Hits = mems[i]->l1Hits();
            r.l1Misses = mems[i]->l1Misses();
            r.l2Hits = mems[i]->l2Hits();
            r.l2Misses = mems[i]->l2Misses();
            r.vecAccesses = mems[i]->vecAccesses();
            r.cohInvalidations = mems[i]->coherenceInvalidations();
        }
        return results;
    }
};

TraceReplay::TraceReplay(std::span<const MachineConfig> machines)
    : machines_(machines.begin(), machines.end())
{
    restart();
}

TraceReplay::~TraceReplay() = default;

void
TraceReplay::put(std::vector<InstRecord> &block)
{
    feed(block);
    block.clear();
}

void
TraceReplay::feed(std::span<const InstRecord> records)
{
    run_->feed(records);
    records_ += records.size();
}

void
TraceReplay::restart()
{
    // Cold caches and pipelines: nothing of the abandoned pass survives.
    run_.reset();
    batch_ = std::make_unique<MachineBatch>(machines_);
    run_ = std::make_unique<BatchRun>(batch_->span);
    records_ = 0;
}

std::vector<RunResult>
TraceReplay::finish()
{
    run_->finish();
    return batch_->collect();
}

std::vector<RunResult>
runTraceBatch(std::span<const MachineConfig> machines,
              const std::vector<InstRecord> &trace)
{
    TraceReplay replay(machines);
    replay.feed(trace);
    return replay.finish();
}

std::vector<RunResult>
runTraceBatch(std::span<const MachineConfig> machines,
              const DecodedStream &stream)
{
    // BatchRun::step() block by block, as feed() steps the blocks it
    // decodes.
    MachineBatch batch(machines);
    BatchRun run(batch.span);
    std::span<const DecodedInst> insts(stream.insts);
    for (size_t base = 0; base < insts.size(); base += traceBlockRecords)
        run.step(insts.subspan(
            base, std::min(traceBlockRecords, insts.size() - base)));
    run.finish();
    return batch.collect();
}

RunResult
runTrace(const MachineConfig &machine, const std::vector<InstRecord> &trace)
{
    return runTraceBatch({&machine, 1}, trace)[0];
}

RunResult
runTrace(const MachineConfig &machine, const DecodedStream &stream)
{
    return runTraceBatch({&machine, 1}, stream)[0];
}

} // namespace vmmx
