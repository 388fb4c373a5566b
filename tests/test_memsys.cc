/**
 * @file
 * Memory-system timing and coherence tests: hit/miss latencies, port
 * occupancy, MSHR merging, vector stride-one vs strided rates, and the
 * exclusive-bit + inclusion protocol between the scalar L1 path and the
 * vector L2 path.
 */

#include <gtest/gtest.h>

#include "mem/memsys.hh"

namespace vmmx
{
namespace
{

MemParams
params2way()
{
    return MemParams::forWay(2, 1);
}

TEST(MemSys, ColdMissThenHit)
{
    MemorySystem ms(params2way());
    Cycle t1 = ms.scalarAccess(0x1000, 8, false, 0);
    // Cold: L1 miss + L2 miss + main memory.
    EXPECT_GT(t1, 500u);
    Cycle t2 = ms.scalarAccess(0x1000, 8, false, t1);
    EXPECT_EQ(t2, t1 + ms.params().l1.latency);
    EXPECT_EQ(ms.l1Hits(), 1u);
    EXPECT_EQ(ms.l1Misses(), 1u);
}

TEST(MemSys, L2HitAfterL1Eviction)
{
    MemParams mp = params2way();
    MemorySystem ms(mp);
    Cycle t = ms.scalarAccess(0x1000, 8, false, 0);
    // Touch enough conflicting lines to evict 0x1000 from the 4-way L1
    // (same set every 32KB/4 = 8KB... walk multiples of the set stride).
    u32 setStride = mp.l1.sizeBytes / mp.l1.assoc;
    for (u32 i = 1; i <= mp.l1.assoc + 1; ++i)
        t = ms.scalarAccess(0x1000 + i * setStride, 8, false, t);
    u64 l2HitsBefore = ms.l2Hits();
    Cycle t2 = ms.scalarAccess(0x1000, 8, false, t);
    EXPECT_GT(ms.l2Hits(), l2HitsBefore);
    EXPECT_LT(t2, t + 100); // L2 hit, not a 500-cycle memory trip
}

TEST(MemSys, PortOccupancySerializes)
{
    MemorySystem ms(params2way()); // one 8-byte L1 port
    // Warm the line.
    Cycle warm = ms.scalarAccess(0x2000, 8, false, 0);
    Cycle a = ms.scalarAccess(0x2000, 8, false, warm + 10);
    Cycle b = ms.scalarAccess(0x2008, 8, false, warm + 10);
    // Same start cycle: second access must wait for the single port.
    EXPECT_NE(a, b);
}

TEST(MemSys, WidePackedAccessHoldsPortLonger)
{
    MemParams mp = params2way();
    auto measure = [&](u32 firstBytes) {
        MemorySystem ms(mp);
        // Warm both lines.
        Cycle t = ms.scalarAccess(0x3000, 8, false, 0);
        t = ms.scalarAccess(0x3040, 8, false, t);
        // Back-to-back: a 16-byte first access holds the single 8-byte
        // port for two cycles and delays the second access.
        Cycle start = t + 10;
        ms.scalarAccess(0x3000, firstBytes, false, start);
        return ms.scalarAccess(0x3040, 8, false, start);
    };
    EXPECT_GT(measure(16), measure(8));
}

TEST(MemSys, MshrMergesOutstandingMisses)
{
    MemorySystem ms(params2way());
    Cycle a = ms.scalarAccess(0x4000, 8, false, 0);
    // Second access to the same line while the miss is outstanding
    // completes with the first fill, not after a second memory trip.
    Cycle b = ms.scalarAccess(0x4008, 8, false, 1);
    EXPECT_LE(b, a + 8);
    EXPECT_EQ(ms.l2Misses(), 1u);
}

TEST(MemSys, VectorStrideOneFasterThanStrided)
{
    MemParams mp = MemParams::forWay(8, 4);
    mp.vecPortBytes = 32;
    MemorySystem ms(mp);
    // Warm both regions in the L2.
    ms.vectorAccess(0x8000, 16, 16, 16, false, 0);
    ms.vectorAccess(0x20000, 16, 720, 16, false, 0);
    Cycle start = 10000;
    Cycle unit = ms.vectorAccess(0x8000, 16, 16, 16, false, start) - start;
    Cycle strided =
        ms.vectorAccess(0x20000, 16, 720, 16, false, start + unit + 1) -
        (start + unit + 1);
    // 256 bytes at 32 B/cyc vs one 64-bit element per cycle.
    EXPECT_LT(unit, strided);
}

TEST(MemSys, VectorStoreInvalidatesL1Copy)
{
    MemorySystem ms(params2way());
    // Scalar brings the line into L1 and dirties it.
    Cycle t = ms.scalarAccess(0x9000, 8, true, 0);
    EXPECT_EQ(ms.coherenceInvalidations(), 0u);
    // A vector store to the same line must flush + invalidate it.
    t = ms.vectorAccess(0x9000, 8, 8, 2, true, t);
    EXPECT_GE(ms.coherenceInvalidations(), 1u);
    // The next scalar access misses the L1 (hits L2).
    u64 missesBefore = ms.l1Misses();
    ms.scalarAccess(0x9000, 8, false, t);
    EXPECT_EQ(ms.l1Misses(), missesBefore + 1);
}

TEST(MemSys, InclusionHoldsOnL2Eviction)
{
    MemParams mp = params2way();
    MemorySystem ms(mp);
    Cycle t = ms.scalarAccess(0xa000, 8, false, 0);
    // Thrash the L2 set holding 0xa000 (2-way L2).
    u32 setStride = mp.l2.sizeBytes / mp.l2.assoc;
    for (u32 i = 1; i <= mp.l2.assoc + 1; ++i)
        t = ms.vectorAccess(0xa000 + i * setStride, 8, 8, 1, false, t);
    // The L1 copy must have been invalidated with its L2 parent.
    u64 missesBefore = ms.l1Misses();
    ms.scalarAccess(0xa000, 8, false, t);
    EXPECT_EQ(ms.l1Misses(), missesBefore + 1);
}

TEST(MemSys, ResetRestoresColdState)
{
    MemorySystem ms(params2way());
    Cycle a = ms.scalarAccess(0xb000, 8, false, 0);
    ms.scalarAccess(0xb000, 8, false, a);
    ASSERT_EQ(ms.l1Misses(), 1u);
    ASSERT_EQ(ms.l1Hits(), 1u);
    ms.reset();
    // The counters restart with the caches.
    EXPECT_EQ(ms.l1Hits(), 0u);
    EXPECT_EQ(ms.l1Misses(), 0u);
    Cycle b = ms.scalarAccess(0xb000, 8, false, 0);
    EXPECT_EQ(a, b);
}

// Regression: a store that misses both levels must mark the L2 line
// dirty (scalarAccess used to pass isWrite=false to l2Lookup), so its
// later L2 eviction is a writeback to memory, not a silent drop.
TEST(MemSys, StoreMissDirtiesL2Line)
{
    MemParams mp = params2way();
    MemorySystem ms(mp);
    // Store that misses the L1 and the L2.
    Cycle t = ms.scalarAccess(0xc000, 8, true, 0);
    EXPECT_EQ(ms.l2WritebackCount(), 0u);
    // Thrash the L2 set holding 0xc000 with clean loads until the dirty
    // line is evicted; its eviction must count as an L2 writeback.
    u32 setStride = mp.l2.sizeBytes / mp.l2.assoc;
    for (u32 i = 1; i <= mp.l2.assoc + 1; ++i) {
        t += 10000; // past the fill, so misses do not merge in the MSHRs
        t = ms.scalarAccess(0xc000 + Addr(i) * setStride, 8, false, t);
    }
    EXPECT_GE(ms.l2WritebackCount(), 1u);
}

// The merge path of the fixed l2Lookup: a store folding into an
// outstanding miss of the same line must also leave the line dirty.
TEST(MemSys, StoreMergingIntoOutstandingMissDirtiesL2Line)
{
    MemParams mp = params2way();
    MemorySystem ms(mp);
    // Load starts the 500-cycle miss to 0xd000.
    Cycle t = ms.scalarAccess(0xd000, 8, false, 0);
    // Evict the (clean) L1 copy while the L2 fill is still in flight, so
    // the following store reaches l2Lookup instead of hitting the L1.
    u32 l1SetStride = mp.l1.sizeBytes / mp.l1.assoc;
    Cycle w = 1;
    for (u32 i = 1; i <= mp.l1.assoc; ++i)
        w = ms.scalarAccess(0xd000 + Addr(i) * l1SetStride, 8, false, w) -
            400; // stay inside the original miss window
    // Store merges into the outstanding miss of the same line.
    ms.scalarAccess(0xd008, 8, true, w);
    // Thrash the L2 set: the merged store's line must write back.
    u32 setStride = mp.l2.sizeBytes / mp.l2.assoc;
    for (u32 i = 1; i <= mp.l2.assoc + 1; ++i) {
        t += 10000;
        t = ms.scalarAccess(0xd000 + Addr(i) * setStride, 8, false, t);
    }
    EXPECT_GE(ms.l2WritebackCount(), 1u);
}

} // namespace
} // namespace vmmx
