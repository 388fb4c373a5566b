/**
 * @file
 * Experiment runner: replays a trace on one machine configuration -- or
 * on a whole batch of configurations in a single pass over the trace --
 * and returns the combined core + memory statistics per configuration.
 *
 * TraceReplay is the streaming form: a TraceSink that steps the batch
 * through a trace block by block as a source hands it over, and the
 * raw-trace entry points below feed it the whole trace at once.
 *
 * Both entry points come in two shapes: the raw-trace overloads decode
 * on the fly (block-wise), while the DecodedStream overloads replay an
 * already-decoded stream (TraceRepository::decoded) without the decode.
 * The per-record step order is identical, so the two shapes produce
 * bit-identical results.
 */

#ifndef VMMX_HARNESS_RUNNER_HH
#define VMMX_HARNESS_RUNNER_HH

#include <memory>
#include <span>
#include <vector>

#include "harness/machine.hh"
#include "sim/sim_context.hh"
#include "trace/trace_stream.hh"

namespace vmmx
{

struct RunResult
{
    RunStats core;
    u64 l1Hits = 0;
    u64 l1Misses = 0;
    u64 l2Hits = 0;
    u64 l2Misses = 0;
    u64 vecAccesses = 0;
    u64 cohInvalidations = 0;

    Cycle cycles() const { return core.cycles; }

    /** Bit-exact comparison (sweep determinism checks). */
    bool operator==(const RunResult &o) const = default;
};

struct MachineBatch; // runner.cc: memory systems + contexts of one pass

/**
 * The consumer end of a trace stream: every configuration of a batch
 * of machines steps through each block as it arrives, from cold caches
 * (BatchRun: one decode per block, shared by all configurations).  A
 * restart() rebuilds every configuration cold, so records of an
 * abandoned pass never reach a result.  finish() once, after the last
 * block; results are bit-identical to runTraceBatch() over the whole
 * trace, however it was split.
 */
class TraceReplay : public TraceSink
{
  public:
    explicit TraceReplay(std::span<const MachineConfig> machines);
    ~TraceReplay() override;

    void put(std::vector<InstRecord> &block) override;
    void restart() override;
    /** Step through @p records, the next piece of the trace, in place
     *  (put() without the block buffer). */
    void feed(std::span<const InstRecord> records);

    /** Records replayed since the start (or the last restart). */
    u64 records() const { return records_; }
    /** Results in @p machines order. */
    std::vector<RunResult> finish();

  private:
    std::vector<MachineConfig> machines_;
    std::unique_ptr<MachineBatch> batch_;
    std::unique_ptr<BatchRun> run_;
    u64 records_ = 0;
};

/**
 * Run @p trace on every configuration in @p machines from cold caches,
 * streaming the trace once: each record is decoded one time and stepped
 * through all configurations' SimContexts before the next is touched.
 * Results are in @p machines order and bit-identical to calling
 * runTrace() per configuration.
 */
std::vector<RunResult> runTraceBatch(std::span<const MachineConfig> machines,
                                     const std::vector<InstRecord> &trace);

/** Batched replay of a pre-decoded stream: no decode at all, results
 *  bit-identical to the raw-trace overload on the source trace. */
std::vector<RunResult> runTraceBatch(std::span<const MachineConfig> machines,
                                     const DecodedStream &stream);

/** Run @p trace on @p machine from cold caches (the batch-of-one case). */
RunResult runTrace(const MachineConfig &machine,
                   const std::vector<InstRecord> &trace);

/** Batch-of-one replay of a pre-decoded stream. */
RunResult runTrace(const MachineConfig &machine, const DecodedStream &stream);

} // namespace vmmx

#endif // VMMX_HARNESS_RUNNER_HH
