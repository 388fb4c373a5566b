/**
 * @file
 * Bounded block streams of dynamic instruction traces.
 *
 * A trace need not exist as one InstRecord vector.  The generator
 * (Program::streamTo) and the trace-store reader (TraceStore::stream)
 * hand it over in blocks of at most traceBlockRecords records to a
 * TraceSink, which consumes each block before the next one is
 * produced.  Memory then stays bounded by a few blocks whatever the
 * trace length, and the record sequence -- the only thing the timing
 * model sees -- is the same as the materialized trace's, so streamed
 * and materialized replays are bit-identical.
 *
 * TraceRing couples a producer thread to a consumer thread: the
 * producer puts blocks into a ring a few blocks deep, and the consumer
 * drains it one trace at a time into its own sink.
 */

#ifndef VMMX_TRACE_TRACE_STREAM_HH
#define VMMX_TRACE_TRACE_STREAM_HH

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <vector>

#include "isa/inst.hh"

namespace vmmx
{

/** Records per streamed block (1.5 MiB of InstRecord). */
constexpr size_t traceBlockRecords = 32768;

/** The consumer end of a trace stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Consume the records of @p block, the next piece of the trace, and
     * leave @p block empty.  A sink may swap in a spare buffer so the
     * producer refills it without reallocating.
     */
    virtual void put(std::vector<InstRecord> &block) = 0;

    /** Forget every record received since the trace began: the source
     *  found its input malformed part way and starts over from the
     *  first record. */
    virtual void restart() = 0;
};

/**
 * A sink that drops every block, for running a Program only for its
 * effect on the memory image (a decoder's input is its encoder's
 * output).  It keeps no state, so the one discardSink() serves every
 * thread.
 */
class DiscardSink : public TraceSink
{
  public:
    void put(std::vector<InstRecord> &block) override { block.clear(); }
    void restart() override {}
};

/** The process-wide DiscardSink. */
TraceSink &discardSink();

/**
 * A bounded single-producer, single-consumer queue of trace blocks.  The
 * producer thread uses the TraceSink side and ends every trace with
 * endTrace(); the consumer thread drain()s one trace at a time.  At most
 * @p depth entries wait in the ring: put() waits on a condition variable
 * while it is full and drain() while it is empty, so neither side
 * spins.  Block buffers circulate between the two sides instead of
 * being reallocated for every block.
 *
 * Failure crosses the ring both ways, so either thread can unwind and
 * the producer can always be joined: fail() hands the producer's
 * exception to drain(), and close() makes a producer waiting for room
 * (or putting later) throw instead.
 */
class TraceRing : public TraceSink
{
  public:
    explicit TraceRing(size_t depth = 3) : depth_(depth) {}

    void put(std::vector<InstRecord> &block) override;
    void restart() override;
    /** Producer: the current trace is complete. */
    void endTrace();
    /** Producer: it failed with @p error, which drain() rethrows once
     *  the entries queued before it are consumed. */
    void fail(std::exception_ptr error);

    /** Consumer: hand the next trace to @p sink, block by block, up to
     *  its end marker (restart markers included). */
    void drain(TraceSink &sink);
    /** Consumer: stop consuming; the producer's puts throw from now. */
    void close();

  private:
    enum class Kind : u8 { Block, Restart, End };

    struct Item
    {
        Kind kind;
        std::vector<InstRecord> block;
    };

    /** Queue @p item once the ring has room; @return a spare buffer
     *  (empty when none is free). */
    std::vector<InstRecord> push(Item item);

    const size_t depth_;
    std::mutex mu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<Item> items_;
    /** Drained buffers waiting to be refilled by the producer. */
    std::vector<std::vector<InstRecord>> spare_;
    std::exception_ptr error_;
    bool closed_ = false;
};

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_STREAM_HH
