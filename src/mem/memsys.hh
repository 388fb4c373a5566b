/**
 * @file
 * Timing model of the two-level memory hierarchy with the vector-cache
 * path (paper section III-D).
 *
 * Scalar and 1-D packed accesses go through the banked L1 (8-byte ports;
 * a 128-bit MMX access occupies a port for two cycles).  Matrix (vector)
 * accesses bypass the L1 and stream from the L2 through a dedicated
 * vector port: stride-one requests transfer vecPortBytes per cycle by
 * reading two whole interleaved lines; other strides transfer one 64-bit
 * element per cycle.  Coherence follows an exclusive-bit + inclusion
 * policy: a vector access to a line present in the L1 forces a writeback
 * (if dirty) and invalidation, so at most one cache level owns a line for
 * writing at any time.
 *
 * The model is timing-only: functional data lives in the MemImage used at
 * trace-generation time.
 */

#ifndef VMMX_MEM_MEMSYS_HH
#define VMMX_MEM_MEMSYS_HH

#include <vector>

#include "common/types.hh"
#include "mem/cache_array.hh"
#include "mem/params.hh"

namespace vmmx
{

class MemorySystem
{
  public:
    explicit MemorySystem(const MemParams &params);

    /**
     * Issue a scalar or 1-D packed access.
     * @param addr resolved effective address
     * @param bytes access size (1..16)
     * @param isWrite store when true
     * @param when earliest cycle the access can start (issue cycle)
     * @return cycle at which the value is available (loads) or the access
     *         is accepted (stores).
     */
    Cycle scalarAccess(Addr addr, u32 bytes, bool isWrite, Cycle when);

    /**
     * Issue a matrix (vector) access of @p vl rows of @p rowBytes each,
     * @p stride bytes apart, through the L2 vector port.
     */
    Cycle vectorAccess(Addr addr, u32 rowBytes, s32 stride, u16 vl,
                       bool isWrite, Cycle when);

    /** Drop all cache state, port reservations and counters (between
     *  runs). */
    void reset();

    const MemParams &params() const { return params_; }

    u64 l1Hits() const { return l1Hits_; }
    u64 l1Misses() const { return l1Misses_; }
    u64 l2Hits() const { return l2Hits_; }
    u64 l2Misses() const { return l2Misses_; }
    u64 vecAccesses() const { return vecAccesses_; }
    u64 coherenceInvalidations() const { return cohInval_; }
    u64 l2WritebackCount() const { return l2Writebacks_; }

  private:
    /** L2 lookup shared by the scalar-miss and vector paths.
     *  @return cycle the line's data is available at the L2.  */
    Cycle l2Lookup(Addr lineAddr, bool isWrite, Cycle when);

    /** Reserve an L1 port and bank; @return transfer start cycle. */
    Cycle reserveL1(Addr addr, u32 bytes, Cycle when);

    /**
     * Outstanding-miss table entry.  The table is a flat array of at most
     * params_.mshrs entries (no per-miss node allocation) with the
     * earliest outstanding fill cycle tracked incrementally, so the
     * common no-retirement case skips the table walk entirely.
     */
    struct MshrEntry
    {
        Addr line;
        Cycle ready;
    };

    static constexpr Cycle noFill = ~Cycle(0);

    MshrEntry *mshrFind(Addr lineAddr);
    void mshrErase(MshrEntry *e);
    void mshrInsert(Addr lineAddr, Cycle ready);
    /** Drop all entries whose fills completed at or before @p when. */
    void mshrRetire(Cycle when);
    /** Entry with the earliest fill (ties: lowest line address). */
    MshrEntry *mshrOldest();
    void mshrRecomputeEarliest();

    MemParams params_;
    CacheArray l1_;
    CacheArray l2_;

    /** log2(l1PortBytes) when it is a power of two (it is in every
     *  Table IV machine), else 0 to take the division fallback. */
    u32 l1PortShift_ = 0;

    std::vector<Cycle> l1PortFree_;
    std::vector<Cycle> l1BankFree_;
    Cycle vecPortFree_ = 0;

    /** Outstanding-miss table (unordered; size <= params_.mshrs). */
    std::vector<MshrEntry> mshr_;
    /** Minimum ready cycle over mshr_; noFill when empty. */
    Cycle mshrEarliest_ = noFill;

    // Event counters; reset() zeroes them.
    u64 l1Hits_ = 0;
    u64 l1Misses_ = 0;
    u64 l2Hits_ = 0;        ///< scalar fills and vector lines
    u64 l2Misses_ = 0;      ///< misses to main memory
    u64 vecAccesses_ = 0;   ///< matrix accesses via the L2 port
    u64 cohInval_ = 0;      ///< L1 lines invalidated by L2 evictions
                            ///< and vector accesses
    u64 l2Writebacks_ = 0;  ///< dirty L2 evictions to memory
};

} // namespace vmmx

#endif // VMMX_MEM_MEMSYS_HH
