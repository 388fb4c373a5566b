#include "mem/memsys.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vmmx
{

MemorySystem::MemorySystem(const MemParams &params)
    : params_(params),
      l1_(params.l1),
      l2_(params.l2),
      l1PortFree_(params.l1Ports, 0),
      l1BankFree_(params.l1.banks, 0)
{
    vmmx_assert(params_.l1Ports > 0, "need at least one L1 port");
    vmmx_assert(params_.vecPortBytes >= 8, "vector port below 64 bits");
    mshr_.reserve(params_.mshrs);
    if (params_.l1PortBytes &&
        !(params_.l1PortBytes & (params_.l1PortBytes - 1))) {
        while ((1u << l1PortShift_) < params_.l1PortBytes)
            ++l1PortShift_;
    }
}

void
MemorySystem::reset()
{
    l1_.flush();
    l2_.flush();
    std::fill(l1PortFree_.begin(), l1PortFree_.end(), 0);
    std::fill(l1BankFree_.begin(), l1BankFree_.end(), 0);
    vecPortFree_ = 0;
    mshr_.clear();
    mshrEarliest_ = noFill;
    l1Hits_ = l1Misses_ = l2Hits_ = l2Misses_ = 0;
    vecAccesses_ = cohInval_ = l2Writebacks_ = 0;
}

MemorySystem::MshrEntry *
MemorySystem::mshrFind(Addr lineAddr)
{
    for (auto &e : mshr_)
        if (e.line == lineAddr)
            return &e;
    return nullptr;
}

void
MemorySystem::mshrRecomputeEarliest()
{
    mshrEarliest_ = noFill;
    for (const auto &e : mshr_)
        mshrEarliest_ = std::min(mshrEarliest_, e.ready);
}

void
MemorySystem::mshrErase(MshrEntry *e)
{
    Cycle ready = e->ready;
    *e = mshr_.back();
    mshr_.pop_back();
    if (ready <= mshrEarliest_)
        mshrRecomputeEarliest();
}

void
MemorySystem::mshrInsert(Addr lineAddr, Cycle ready)
{
    mshr_.push_back({lineAddr, ready});
    mshrEarliest_ = std::min(mshrEarliest_, ready);
}

void
MemorySystem::mshrRetire(Cycle when)
{
    for (size_t i = 0; i < mshr_.size();) {
        if (mshr_[i].ready <= when) {
            mshr_[i] = mshr_.back();
            mshr_.pop_back();
        } else {
            ++i;
        }
    }
    mshrRecomputeEarliest();
}

MemorySystem::MshrEntry *
MemorySystem::mshrOldest()
{
    MshrEntry *best = nullptr;
    for (auto &e : mshr_) {
        // Ties break toward the lowest line address, preserving the
        // ordered-map semantics this table replaced.
        if (!best || e.ready < best->ready ||
            (e.ready == best->ready && e.line < best->line)) {
            best = &e;
        }
    }
    return best;
}

Cycle
MemorySystem::l2Lookup(Addr lineAddr, bool isWrite, Cycle when)
{
    // An outstanding miss to the same line is merged (MSHR hit).
    if (MshrEntry *e = mshrFind(lineAddr)) {
        if (e->ready > when) {
            Cycle ready = e->ready;
            if (isWrite)
                l2_.fill(lineAddr, true);
            return ready;
        }
        mshrErase(e); // fill completed; retire the entry
    }

    if (l2_.probe(lineAddr)) {
        ++l2Hits_;
        l2_.touch(lineAddr);
        if (isWrite)
            l2_.setDirty(lineAddr);
        return when + params_.l2.latency;
    }

    ++l2Misses_;
    // Retire MSHR entries whose fills have completed; the tracked
    // earliest-fill cycle skips the walk when nothing can have finished.
    if (mshrEarliest_ <= when)
        mshrRetire(when);
    // MSHR capacity: with all entries busy the request waits for the
    // earliest outstanding fill.
    Cycle start = when;
    while (mshr_.size() >= params_.mshrs) {
        MshrEntry *oldest = mshrOldest();
        start = std::max(start, oldest->ready);
        mshrErase(oldest);
    }

    Cycle ready = start + params_.l2.latency + params_.memLatency;
    mshrInsert(lineAddr, ready);
    auto ev = l2_.fill(lineAddr, isWrite);
    if (ev.evicted) {
        if (ev.evictedDirty)
            ++l2Writebacks_;
        // Inclusion: an L2 eviction must also leave the L1.
        if (l1_.invalidate(ev.evictedLine))
            ++cohInval_;
    }
    return ready;
}

Cycle
MemorySystem::reserveL1(Addr addr, u32 bytes, Cycle when)
{
    u32 portCycles = std::max<u32>(
        1, l1PortShift_
               ? (bytes + params_.l1PortBytes - 1) >> l1PortShift_
               : (bytes + params_.l1PortBytes - 1) / params_.l1PortBytes);

    // Earliest-free port.
    auto port = std::min_element(l1PortFree_.begin(), l1PortFree_.end());
    u32 bank = l1_.bank(addr);
    Cycle start = std::max({when, *port, l1BankFree_[bank]});
    *port = start + portCycles;
    l1BankFree_[bank] = start + portCycles;
    return start;
}

Cycle
MemorySystem::scalarAccess(Addr addr, u32 bytes, bool isWrite, Cycle when)
{
    vmmx_assert(bytes >= 1 && bytes <= 16, "scalar access size %u", bytes);

    Cycle start = reserveL1(addr, bytes, when);
    Addr line = l1_.lineAddr(addr);
    // An access that straddles two lines pays a second (sequential) probe;
    // media code keeps data aligned so this is rare.
    bool straddles = l1_.lineAddr(addr + bytes - 1) != line;

    Cycle done;
    if (l1_.probe(line)) {
        ++l1Hits_;
        l1_.touch(line);
        if (isWrite)
            l1_.setDirty(line);
        done = start + params_.l1.latency;
    } else {
        ++l1Misses_;
        Cycle l2Ready = l2Lookup(line, isWrite, start + params_.l1.latency);
        // Fill the L1 (inclusion holds: the line is now in both levels).
        Cycle fill =
            l2Ready + params_.l1.lineBytes / std::max<u32>(
                          1, params_.l2FillBytes);
        auto ev = l1_.fill(line, isWrite);
        if (ev.evicted && ev.evictedDirty)
            l2_.fill(ev.evictedLine, true);
        if (isWrite)
            l1_.setDirty(line);
        done = fill;
    }

    if (straddles) {
        Addr line2 = line + l1_.lineBytes();
        if (l1_.probe(line2)) {
            ++l1Hits_;
            l1_.touch(line2);
            if (isWrite)
                l1_.setDirty(line2);
            done = std::max(done, start + params_.l1.latency + 1);
        } else {
            ++l1Misses_;
            Cycle l2Ready =
                l2Lookup(line2, isWrite, start + params_.l1.latency + 1);
            auto ev = l1_.fill(line2, isWrite);
            if (ev.evicted && ev.evictedDirty)
                l2_.fill(ev.evictedLine, true);
            done = std::max(done, l2Ready);
        }
    }

    // Stores retire into the store buffer as soon as the line is owned.
    return done;
}

Cycle
MemorySystem::vectorAccess(Addr addr, u32 rowBytes, s32 stride, u16 vl,
                           bool isWrite, Cycle when)
{
    vmmx_assert(vl >= 1 && vl <= 16, "vector length %u", vl);
    vmmx_assert(rowBytes == 8 || rowBytes == 16, "row bytes %u", rowBytes);

    ++vecAccesses_;
    bool unit = stride == s32(rowBytes);

    // Walk the touched lines: L2 state update + coherence with the L1.
    Cycle dataReady = when;
    Addr prevLine = ~Addr(0);
    for (u16 r = 0; r < vl; ++r) {
        Addr rowAddr = addr + Addr(s64(stride) * r);
        for (Addr a = rowAddr; a < rowAddr + rowBytes;
             a += params_.l2.lineBytes) {
            Addr line = l2_.lineAddr(a);
            if (line == prevLine)
                continue;
            prevLine = line;

            // Exclusive-bit coherence: the vector unit takes ownership of
            // the line; any L1 copy is flushed (if dirty) and dropped.
            if (l1_.probe(line)) {
                if (l1_.isDirty(line))
                    l2_.fill(line, true);
                l1_.invalidate(line);
                ++cohInval_;
            }

            Cycle ready = l2Lookup(line, isWrite, when);
            dataReady = std::max(dataReady, ready);
        }
        // Cover the tail of a row that spans a line boundary.
        Addr lastLine = l2_.lineAddr(rowAddr + rowBytes - 1);
        if (lastLine != prevLine) {
            if (l1_.probe(lastLine)) {
                if (l1_.isDirty(lastLine))
                    l2_.fill(lastLine, true);
                l1_.invalidate(lastLine);
                ++cohInval_;
            }
            Cycle ready = l2Lookup(lastLine, isWrite, when);
            dataReady = std::max(dataReady, ready);
            prevLine = lastLine;
        }
    }

    // Transfer time through the vector port.
    u64 totalBytes = u64(rowBytes) * vl;
    Cycle xfer;
    if (unit) {
        xfer = (totalBytes + params_.vecPortBytes - 1) / params_.vecPortBytes;
    } else {
        // One 64-bit element per cycle for any other stride.
        xfer = (totalBytes + params_.vecStridedBytes - 1) /
               params_.vecStridedBytes;
    }
    xfer = std::max<Cycle>(xfer, 1);

    // The port is held only while data moves; miss latency overlaps with
    // other requests (decoupled fetch).
    Cycle xferStart = std::max(dataReady, vecPortFree_);
    Cycle done = xferStart + xfer;
    vecPortFree_ = done;
    return done;
}

} // namespace vmmx
