/**
 * @file
 * Persistent content-addressed on-disk cache of generated traces.
 *
 * Trace generation is deterministic in the TraceKey, so the store is
 * content addressed by construction: the key maps to one file name and
 * the file carries the key, a version, and an FNV-1a checksum over the
 * delta+varint-compressed payload.  Workers of a distributed sweep (and
 * repeated sweep invocations in new processes) load traces from here
 * instead of regenerating them.
 *
 * Writes are atomic (temp file + rename) so concurrent writers of the
 * same key -- two workers racing to generate the same trace -- are
 * harmless: both produce identical bytes and the second rename wins.
 * Any validation failure on load (bad magic/version, key mismatch,
 * checksum mismatch, truncation) reads as a miss, never an error.
 */

#ifndef VMMX_TRACE_TRACE_STORE_HH
#define VMMX_TRACE_TRACE_STORE_HH

#include <atomic>
#include <string>

#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"

namespace vmmx
{

class TraceStore
{
  public:
    /** $VMMX_TRACE_STORE if set, else "vmmx-trace-store" under the
     *  system temporary directory. */
    static std::string defaultDir();

    /** Opens (and creates if needed) the store directory. */
    explicit TraceStore(std::string dir = defaultDir());
    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    const std::string &dir() const { return dir_; }

    /** Store file for @p key, e.g. "<dir>/kernel-idct-vmmx128-....vmtr". */
    std::string path(const TraceKey &key) const;

    /** @return the stored trace, or null on miss/corruption. */
    SharedTrace load(const TraceKey &key);

    /**
     * Stream the stored trace for @p key into @p sink, decoding it a
     * block at a time after the whole-file checksum and the header have
     * been verified.  @return false on a miss; nothing reaches @p sink
     * then, except that records found malformed after some blocks were
     * put make the sink restart() (warned, and counted as a miss).
     */
    bool stream(const TraceKey &key, TraceSink &sink);

    /** Persist @p trace atomically. @return false on I/O failure. */
    bool save(const TraceKey &key, const std::vector<InstRecord> &trace);

    /**
     * save() for a trace that arrives in blocks: add() them in order,
     * then commit() publishes a file byte-identical to save() of their
     * concatenation, with the same atomic rename.  The encoded records
     * (a few bytes each) are buffered until commit().
     */
    class Writer
    {
      public:
        Writer(TraceStore &store, TraceKey key)
            : store_(store), key_(std::move(key))
        {
        }
        void add(std::span<const InstRecord> records) { enc_.add(records); }
        /** @return false on I/O failure. */
        bool commit();

      private:
        TraceStore &store_;
        TraceKey key_;
        TraceEncoder enc_;
    };

    /** @return true when a valid-looking file exists for @p key. */
    bool contains(const TraceKey &key) const;

    u64 saves() const { return saves_.load(); }
    u64 misses() const { return misses_.load(); }

  private:
    /** Read @p key's file, verify its checksum and header, and leave
     *  @p r at the encoded trace.  @return false (counted as a miss) if
     *  the file is absent or damaged. */
    bool open(const TraceKey &key, std::vector<u8> &bytes, wire::Reader &r);
    /** Damaged file: warn and count a miss. */
    void reject(const TraceKey &key, const char *why);

    std::string dir_;
    std::atomic<u64> saves_{0};
    std::atomic<u64> misses_{0};
};

} // namespace vmmx

#endif // VMMX_TRACE_TRACE_STORE_HH
