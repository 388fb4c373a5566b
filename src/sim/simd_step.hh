/**
 * @file
 * The batched step kernel, written once against a tiny vector-ops
 * trait and instantiated per host ISA (see sim/simd_dispatch.hh for
 * how an instantiation is chosen at runtime).
 *
 * stepBlockT() advances every lane of a SimBatch by one DecodedInst at
 * a time, replicating SimContext::step() phase for phase.  All cycle
 * arithmetic is unsigned 64-bit adds, subtracts, compares, mins, maxes
 * and blends with no lane interaction, so every instantiation is
 * bit-identical to SimContext::step() by construction -- the only
 * differences between paths are how many lanes one vector op covers.
 *
 * Exactness of the compare tricks: cycle values are bounded far below
 * 2^62 (kInf is the pool sentinel), so unsigned u64 ordering coincides
 * with signed ordering and the AVX2 signed-compare idiom is exact.
 * The pool min scans reproduce SlotPool's first-strict-minimum scan
 * order, so tie-breaking is identical, not just equivalent.
 *
 * The issue queue, the free lists, the ROB and the store window step
 * as the lockstep rings of sim/sim_batch.hh, whose file comment says
 * why they answer exactly what the context's IssueQueueModel,
 * RegFreeList, ROB ring and StoreWindow would: one gather reads every
 * lane's entry at its own depth and one store pushes every lane's
 * entry; a load tests each store's footprint once for all lanes
 * (storeWait).  The L1 ports are a pool and the banks a row table, as
 * MemorySystem::reserveL1 keeps them (l1Access).  What stays per lane:
 * an issue-queue entry that sinks below the vector insert's window
 * (iqInsert), a lane's bank pick and its port and bank writeback, and
 * the access itself past the L1 port -- the tag check, any miss, and
 * every vector access (mem/memsys.hh).
 *
 * Vector loops cover the chunks that hold a live lane, not every
 * padded lane: chunks past the last live lane are never read back.
 *
 * This header is included only by the per-ISA kernel translation
 * units, each compiled with the matching -m flags; the ISA-specific
 * ops structs are guarded by the compiler's own feature macros so the
 * header itself stays portable.
 */

#ifndef VMMX_SIM_SIMD_STEP_HH
#define VMMX_SIM_SIMD_STEP_HH

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "sim/sim_batch.hh"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace vmmx::simd
{

#ifdef __AVX2__
/** Four lanes per op.  The signed 64-bit compare is exact for values
 *  below 2^62. */
struct Avx2Ops
{
    static constexpr size_t W = 4;
    using Vec = __m256i;
    using Mask = __m256i;

    static Vec load(const u64 *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void store(u64 *p, Vec v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    /** p[idx] per lane. */
    static Vec gather(const u64 *p, Vec idx)
    {
        return _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(p), idx, 8);
    }
    static Vec bcast(u64 x) { return _mm256_set1_epi64x(s64(x)); }
    static Vec add(Vec a, Vec b) { return _mm256_add_epi64(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm256_sub_epi64(a, b); }
    static Mask gtU(Vec a, Vec b) { return _mm256_cmpgt_epi64(a, b); }
    static Mask ltU(Vec a, Vec b) { return _mm256_cmpgt_epi64(b, a); }
    static Vec max(Vec a, Vec b) { return blend(gtU(a, b), a, b); }
    static Vec min(Vec a, Vec b) { return blend(gtU(a, b), b, a); }
    static Vec blend(Mask m, Vec a, Vec b)
    {
        return _mm256_blendv_epi8(b, a, m);
    }
    static Vec addWhere(Vec v, Mask m) { return _mm256_sub_epi64(v, m); }
    static Mask andM(Mask a, Mask b) { return _mm256_and_si256(a, b); }
    static Mask orM(Mask a, Mask b) { return _mm256_or_si256(a, b); }
    static Mask notM(Mask a)
    {
        return _mm256_xor_si256(a, _mm256_set1_epi32(-1));
    }
    /** Lane i of @p m as bit i. */
    static unsigned bits(Mask m)
    {
        return unsigned(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
    }
};
#endif // __AVX2__

#ifdef __AVX512F__
/** Eight lanes per op with real predicate masks and native unsigned
 *  64-bit compares, mins and maxes. */
struct Avx512Ops
{
    static constexpr size_t W = 8;
    using Vec = __m512i;
    using Mask = __mmask8;

    static Vec load(const u64 *p) { return _mm512_loadu_si512(p); }
    static void store(u64 *p, Vec v) { _mm512_storeu_si512(p, v); }
    /** p[idx] per lane. */
    static Vec gather(const u64 *p, Vec idx)
    {
        return _mm512_i64gather_epi64(idx, p, 8);
    }
    static Vec bcast(u64 x) { return _mm512_set1_epi64(s64(x)); }
    static Vec add(Vec a, Vec b) { return _mm512_add_epi64(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm512_sub_epi64(a, b); }
    static Mask gtU(Vec a, Vec b) { return _mm512_cmpgt_epu64_mask(a, b); }
    static Mask ltU(Vec a, Vec b) { return _mm512_cmplt_epu64_mask(a, b); }
    static Vec max(Vec a, Vec b) { return _mm512_max_epu64(a, b); }
    static Vec min(Vec a, Vec b) { return _mm512_min_epu64(a, b); }
    static Vec blend(Mask m, Vec a, Vec b)
    {
        return _mm512_mask_blend_epi64(m, b, a);
    }
    static Vec addWhere(Vec v, Mask m)
    {
        return _mm512_mask_add_epi64(v, m, v, _mm512_set1_epi64(1));
    }
    static Mask andM(Mask a, Mask b) { return Mask(a & b); }
    static Mask orM(Mask a, Mask b) { return Mask(a | b); }
    static Mask notM(Mask a) { return Mask(~a); }
    /** Lane i of @p m as bit i. */
    static unsigned bits(Mask m) { return m; }
};
#endif // __AVX512F__

/** The live lanes of the chunk at lane @p c (c < lanes) as V::bits(). */
template <class V>
inline unsigned
liveBits(const SimBatch &b, size_t c)
{
    return (1u << std::min(V::W, b.lanes - c)) - 1;
}

/**
 * WidthGate::pass() across one chunk of lanes: the three cases (ahead
 * of the stage / same cycle with width left / stage full) become two
 * masks and two blends.  State is updated in place; @return the pass
 * cycle (>= @p cIn in every lane).
 */
template <class V>
inline typename V::Vec
gatePass(u64 *cur, u64 *used, const u64 *width, typename V::Vec cIn)
{
    auto curV = V::load(cur);
    auto usedV = V::load(used);
    auto one = V::bcast(1);
    auto gt = V::gtU(cIn, curV);
    auto space = V::ltU(usedV, V::load(width));
    auto ret =
        V::blend(gt, cIn, V::blend(space, curV, V::add(curV, one)));
    auto keep = V::andM(V::notM(gt), space);
    V::store(cur, ret);
    V::store(used, V::blend(keep, V::add(usedV, one), one));
    return ret;
}

/**
 * Each lane's entry of @p ring at its own depth behind row @p base (the
 * write row; the free lists move it on by the allocations not yet
 * released, fewer than any lane's depth), for the chunk at lane @p c:
 * one gather.  The unwrapped element index stays below two ring spans,
 * so one conditional subtract wraps it.
 */
template <class V>
inline typename V::Vec
ringRead(const SimBatch &b, const SimBatch::Ring &ring, size_t base,
         size_t c)
{
    const u64 span = ring.rows * b.padded;
    auto idx = V::add(V::bcast(base * b.padded), V::load(&ring.readOff[c]));
    auto wrap = V::gtU(idx, V::bcast(span - 1));
    idx = V::blend(wrap, V::sub(idx, V::bcast(span)), idx);
    return V::gather(ring.slots.data(), idx);
}

/**
 * SlotPool::acquire() minus the occupancy writeback: a first-strict-
 * minimum scan over the pool's slot rows per lane, then
 * start = max(cIn, earliest free).  Leaves the start cycles in @p out
 * and the winning slot index per lane in b.t1; the caller writes the
 * occupancy back (it can differ per lane).
 */
template <class V>
inline void
poolAcquire(SimBatch &b, const SimBatch::Pool &pool, const u64 *cIn,
            u64 *out, size_t C)
{
    const size_t P = b.padded;
    for (size_t c = 0; c < C; c += V::W) {
        auto bestV = V::bcast(SimBatch::kInf);
        auto bestI = V::bcast(0);
        for (size_t r = 0; r < pool.rows; ++r) {
            auto v = V::load(&pool.slots[r * P + c]);
            auto lt = V::ltU(v, bestV);
            bestV = V::blend(lt, v, bestV);
            bestI = V::blend(lt, V::bcast(r), bestI);
        }
        V::store(&out[c], V::max(V::load(&cIn[c]), bestV));
        V::store(&b.t1[c], bestI);
    }
}

/** The occupancy writeback after poolAcquire() into b.issue: occupy
 *  each lane's winning slot until issue + max(occ, 1).  @p occArr
 *  overrides @p occConst per lane when non-null. */
inline void
poolWriteback(SimBatch &b, SimBatch::Pool &pool, const u64 *occArr,
              u64 occConst)
{
    const size_t P = b.padded;
    for (size_t l = 0; l < b.lanes; ++l) {
        u64 o = occArr ? occArr[l] : occConst;
        if (o < 1)
            o = 1;
        pool.slots[size_t(b.t1[l]) * P + l] = b.issue[l] + o;
    }
}

/**
 * The scalar tail of iqInsert() for lane @p l, whose entry y leaves
 * earlier than the iqWindow rows under the write row, which the vector
 * merge has already moved up one row: keep moving later leavers up
 * until the row below leaves no later than y, never past the lowest of
 * the lane's iqSize rows.
 */
inline void
iqSink(SimBatch &b, size_t l)
{
    constexpr size_t Wq = SimBatch::iqWindow;
    const size_t P = b.padded;
    const size_t R = b.iq.rows;
    u64 *slots = b.iq.slots.data();
    const u64 y = b.issue[l] + 1;
    size_t r = b.iq.pos >= Wq ? b.iq.pos - Wq : b.iq.pos + R - Wq;
    for (size_t k = Wq; k + 1 < b.iqCap[l]; ++k) {
        size_t below = r ? r - 1 : R - 1;
        u64 e = slots[below * P + l];
        if (e <= y)
            break;
        slots[r * P + l] = e;
        r = below;
    }
    slots[r * P + l] = y;
}

/**
 * IssueQueueModel::insert() for every lane: put y = issue + 1, the
 * cycle the entry leaves the queue, into the lane's sorted rows and
 * push the write row.
 *
 * Merging y into a sorted column is e' = max(below, min(self, y)) row
 * by row, the write row's stale entry standing for "later than
 * anything".  Over the top Wq = SimBatch::iqWindow rows that is exact
 * unless the row under them, too, leaves later than y -- the lane then
 * has Wq or more later leavers, and iqSink() finishes the move in
 * scalar.
 *
 * A lane with iqSize <= Wq has rows under its window inside the merge.
 * They stay harmless: the merge keeps the whole column sorted, so they
 * leave no later than the lane's popped entry, and the popped entry
 * leaves before y (a full queue made rename wait for it, and issue
 * follows rename).  So no row under the window moves into it, and the
 * scalar tail never starts for such a lane.
 */
template <class V>
inline void
iqInsert(SimBatch &b, size_t C)
{
    constexpr size_t Wq = SimBatch::iqWindow;
    const size_t P = b.padded;
    SimBatch::Ring &ring = b.iq;
    u64 *row[Wq + 1]; // the write row, then the Wq rows under it
    for (size_t j = 0, r = ring.pos; j <= Wq; ++j) {
        row[j] = &ring.slots[r * P];
        r = r ? r - 1 : ring.rows - 1;
    }
    const auto one = V::bcast(1);
    for (size_t c = 0; c < C; c += V::W) {
        auto y = V::add(V::load(&b.issue[c]), one);
        auto below = V::load(&row[1][c]);
        V::store(&row[0][c], V::max(below, y));
        for (size_t j = 1; j < Wq; ++j) {
            auto self = below;
            below = V::load(&row[j + 1][c]);
            V::store(&row[j][c], V::max(below, V::min(self, y)));
        }
        unsigned deep = V::bits(V::gtU(below, y)) & liveBits<V>(b, c);
        for (; deep; deep &= deep - 1)
            iqSink(b, c + size_t(std::countr_zero(deep)));
    }
    ring.advance();
}

/**
 * StoreWindow::disambiguate() for every lane: raise b.issue to the done
 * cycle of every store in the lane's window whose bytes overlap the
 * load's.
 *
 * First the shared head moves past the oldest stores that no lane can
 * still wait for: each lane has the store out of its window or done by
 * its floor, rename + 1.  Both hold for every later load too -- pushes
 * only grow and rename never moves back -- and such a store cannot
 * raise an issue, which is at least rename + 1.  Then a walk from the
 * newest store tests each footprint once, in scalar, and an overlapping
 * store raises every lane that has it in its window: push p is in lane
 * l's window iff its age, pushes - p, is at most window_l.
 */
template <class V>
inline void
storeWait(SimBatch &b, const DecodedInst &inst, size_t C)
{
    SimBatch::StoreRing &s = b.stores;
    const size_t P = b.padded;
    const u64 mask = s.rows - 1;
    const auto one = V::bcast(1);
    for (; s.head != s.tail; ++s.head) {
        const u64 *row = &s.done[(s.head & mask) * P];
        const auto older = V::bcast(s.tail - s.head - 1); // age - 1
        unsigned live = 0;
        for (size_t c = 0; c < C && !live; c += V::W) {
            auto inWindow = V::gtU(V::load(&s.window[c]), older);
            auto pending = V::gtU(V::load(&row[c]),
                                  V::add(V::load(&b.rn[c]), one));
            live = V::bits(V::andM(inWindow, pending));
        }
        if (live)
            break;
    }
    for (u64 i = s.tail; i != s.head;) {
        --i;
        const SimBatch::StoreRing::Footprint &f = s.footprint[i & mask];
        if (!(f.lo < inst.hi && inst.lo < f.hi))
            continue;
        const u64 *row = &s.done[(i & mask) * P];
        const auto older = V::bcast(s.tail - i - 1);
        for (size_t c = 0; c < C; c += V::W) {
            auto inWindow = V::gtU(V::load(&s.window[c]), older);
            auto is = V::load(&b.issue[c]);
            V::store(&b.issue[c],
                     V::blend(inWindow, V::max(is, V::load(&row[c])), is));
        }
    }
}

/** StoreWindow::push() for every lane: the store's footprint and each
 *  lane's b.done.  A full ring drops its oldest store, which is then
 *  out of every lane's window. */
template <class V>
inline void
storePush(SimBatch &b, const DecodedInst &inst, size_t C)
{
    SimBatch::StoreRing &s = b.stores;
    if (s.tail - s.head == s.rows)
        ++s.head;
    const size_t r = s.tail++ & (s.rows - 1);
    s.footprint[r] = {inst.lo, inst.hi};
    u64 *row = &s.done[r * b.padded];
    for (size_t c = 0; c < C; c += V::W)
        V::store(&row[c], V::load(&b.done[c]));
}

/**
 * MemorySystem::scalarAccess() for every lane from b.issue into
 * b.done: reserveL1() on the batch's port pool and bank rows, then the
 * lane's own scalarAccessAt() for the tag check and any miss.  The
 * earliest-free port is a vector min scan; the bank pick and both
 * writebacks go per lane, with the lane's MemorySystem's bank
 * interleave and port cycles.
 */
template <class V>
inline void
l1Access(SimBatch &b, const DecodedInst &inst, size_t C)
{
    const size_t P = b.padded;
    const u32 bytes = inst.rowBytes;
    const bool isWrite = inst.has(DecodedInst::kStore);
    vmmx_assert(bytes >= 1 && bytes <= 16, "scalar access size %u", bytes);
    poolAcquire<V>(b, b.l1Ports, b.issue.data(), b.start.data(), C);
    for (size_t l = 0; l < b.lanes; ++l) {
        MemorySystem &mem = *b.ctx[l]->mem();
        u64 &bankFree = b.l1Banks[mem.l1Bank(inst.addr) * P + l];
        const Cycle start = std::max(b.start[l], bankFree);
        const Cycle end = start + mem.l1PortCycles(bytes);
        bankFree = end;
        b.l1Ports.slots[b.t1[l] * P + l] = end;
        b.done[l] = mem.scalarAccessAt(inst.addr, bytes, isWrite, start);
    }
}

/**
 * Advance every lane of @p b through @p n decoded records.  The phase
 * order is SimContext::step()'s, record for record; trace-determined
 * branches (FU type, flags, operand lists) are taken once per record
 * outside the lane loops.
 */
template <class V>
void
stepBlockT(SimBatch &b, const DecodedInst *insts, size_t n)
{
    const size_t P = b.padded;
    const size_t L = b.lanes;
    const size_t C = (L + V::W - 1) / V::W * V::W; ///< lanes the loops cover
    const auto one = V::bcast(1);

    for (size_t k = 0; k < n; ++k) {
        const DecodedInst &inst = insts[k];
        const bool takesIq = inst.has(DecodedInst::kTakesIq);
        const bool hasDst = inst.dstCls != DecodedInst::noDst;
        const bool readsDst = inst.has(DecodedInst::kReadsDst);

        // The destination's free list: allocate at rename, release at
        // commit.  RegFreeList's deadlock check, for every live lane.
        SimBatch::Ring *freeList = nullptr;
        size_t regBase = 0;
        u64 *last = nullptr;
        if (hasDst) {
            const unsigned cls = inst.dstCls;
            const u64 pending = b.allocs[cls] - b.releases[cls];
            vmmx_assert(pending < b.minFree[cls],
                        "rename deadlock: no free registers and none in "
                        "flight");
            freeList = &b.regs[cls];
            regBase = freeList->pos + pending;
            last = &b.regLast[cls * P];
            ++b.allocs[cls];
        }

        // ---- fetch, rename (ROB, issue-queue and register space,
        // the rename gate) and operand readiness ----
        for (size_t c = 0; c < C; c += V::W) {
            auto fetch = gatePass<V>(&b.fCur[c], &b.fUsed[c], &b.gateW[c],
                                     V::load(&b.redirect[c]));
            auto rnV = V::add(fetch, V::load(&b.frontDepth[c]));

            // The record robSize earlier must have committed.
            auto robFree1 =
                V::add(ringRead<V>(b, b.rob, b.rob.pos, c), one);
            auto st = V::gtU(robFree1, rnV);
            rnV = V::blend(st, robFree1, rnV);
            V::store(&b.stallRob[c],
                     V::addWhere(V::load(&b.stallRob[c]), st));

            // VSETVL folds into rename and takes no entry.  A full
            // queue frees its earliest leaver; an empty slot reads 0.
            if (takesIq) {
                auto leave = ringRead<V>(b, b.iq, b.iq.pos, c);
                st = V::gtU(leave, rnV);
                rnV = V::blend(st, leave, rnV);
                V::store(&b.stallIq[c],
                         V::addWhere(V::load(&b.stallIq[c]), st));
            }

            // Wait for the release this allocation takes only if it is
            // later than every earlier allocation's result too.
            if (hasDst) {
                auto lastV = V::load(&last[c]);
                auto freed = ringRead<V>(b, *freeList, regBase, c);
                st = V::gtU(freed, V::max(rnV, lastV));
                rnV = V::blend(st, freed, rnV);
                V::store(&last[c], V::max(lastV, rnV));
                V::store(&b.stallRegs[c],
                         V::addWhere(V::load(&b.stallRegs[c]), st));
            }

            rnV = gatePass<V>(&b.rCur[c], &b.rUsed[c], &b.gateW[c], rnV);
            V::store(&b.rn[c], rnV);
            auto ready = V::add(rnV, one);
            for (unsigned s = 0; s < inst.nSrcs; ++s)
                ready = V::max(
                    ready,
                    V::load(&b.regReady[size_t(inst.srcReg[s]) * P + c]));
            if (readsDst)
                ready = V::max(
                    ready,
                    V::load(&b.regReady[size_t(inst.dstReg) * P + c]));
            V::store(&b.ready[c], ready);
        }

        // ---- issue and execute ----
        switch (static_cast<FuType>(inst.fu)) {
          case FuType::IntAlu:
          case FuType::IntMul: {
            poolAcquire<V>(b, b.intPool, b.ready.data(), b.issue.data(), C);
            poolWriteback(b, b.intPool, nullptr,
                          FuType(inst.fu) == FuType::IntMul ? inst.mulOcc
                                                            : 1);
            auto lat = V::bcast(inst.latency);
            for (size_t c = 0; c < C; c += V::W)
                V::store(&b.done[c], V::add(V::load(&b.issue[c]), lat));
            break;
          }
          case FuType::Fp: {
            poolAcquire<V>(b, b.fpPool, b.ready.data(), b.issue.data(), C);
            poolWriteback(b, b.fpPool, nullptr, 1);
            auto lat = V::bcast(inst.latency);
            for (size_t c = 0; c < C; c += V::W)
                V::store(&b.done[c], V::add(V::load(&b.issue[c]), lat));
            break;
          }
          case FuType::Simd: {
            if (inst.vl == 0) {
                std::fill_n(b.occ.data(), C, u64(1));
            } else if (inst.transp) {
                std::fill_n(b.occ.data(), C, u64(inst.vl));
            } else if (inst.vl <= 16) {
                const u64 *row = &b.lanesOcc[size_t(inst.vl) * P];
                for (size_t c = 0; c < C; c += V::W)
                    V::store(&b.occ[c], V::load(&row[c]));
            } else {
                for (size_t l = 0; l < L; ++l)
                    b.occ[l] = (inst.vl + b.lanesPerFu[l] - 1) /
                               b.lanesPerFu[l];
            }
            poolAcquire<V>(b, b.simdIssuePool, b.ready.data(),
                           b.issue.data(), C);
            poolWriteback(b, b.simdIssuePool, nullptr, 1);
            poolAcquire<V>(b, b.simdPool, b.issue.data(), b.issue.data(), C);
            poolWriteback(b, b.simdPool, b.occ.data(), 1);
            // done = issue + occ - 1 + latency (occ >= 1, so the
            // unsigned wrap of latency - 1 cancels exactly).
            auto latM1 = V::bcast(u64(inst.latency) - 1);
            for (size_t c = 0; c < C; c += V::W)
                V::store(&b.done[c],
                         V::add(V::add(V::load(&b.issue[c]),
                                       V::load(&b.occ[c])),
                                latM1));
            break;
          }
          case FuType::Mem: {
            // Disambiguation, the access, the store-window push.
            std::copy_n(b.ready.data(), C, b.issue.data());
            if (b.stores.rows && inst.has(DecodedInst::kLoad))
                storeWait<V>(b, inst, C);
            if (inst.has(DecodedInst::kVecMem)) {
                const bool isWrite = inst.has(DecodedInst::kStore);
                for (size_t l = 0; l < L; ++l)
                    b.done[l] = b.ctx[l]->mem()->vectorAccess(
                        inst.addr, inst.rowBytes, inst.stride, inst.rows,
                        isWrite, b.issue[l]);
            } else {
                l1Access<V>(b, inst, C);
            }
            if (b.stores.rows && inst.has(DecodedInst::kStore))
                storePush<V>(b, inst, C);
            ++b.memOps;
            break;
          }
          case FuType::None: {
            for (size_t c = 0; c < C; c += V::W) {
                auto is = V::add(V::load(&b.rn[c]), one);
                V::store(&b.issue[c], is);
                V::store(&b.done[c], is);
            }
            break;
          }
          default:
            panic("unknown FU type");
        }

        if (takesIq)
            iqInsert<V>(b, C);

        // ---- writeback ----
        if (hasDst) {
            u64 *row = &b.regReady[size_t(inst.dstReg) * P];
            for (size_t c = 0; c < C; c += V::W)
                V::store(&row[c], V::load(&b.done[c]));
        }

        // ---- branch resolution ----
        if (inst.has(DecodedInst::kBranch)) {
            ++b.branches;
            if (inst.has(DecodedInst::kCondBr)) {
                const bool taken = inst.has(DecodedInst::kTaken);
                if (b.bpredShared) {
                    if (!b.predictLane(0, inst.staticId, taken)) {
                        for (size_t l = 0; l < L; ++l)
                            ++b.mispredicts[l];
                        for (size_t c = 0; c < C; c += V::W) {
                            auto r = V::add(V::load(&b.done[c]),
                                            V::load(&b.penalty[c]));
                            V::store(&b.redirect[c],
                                     V::max(V::load(&b.redirect[c]), r));
                        }
                    }
                } else {
                    for (size_t l = 0; l < L; ++l) {
                        if (b.predictLane(l, inst.staticId, taken))
                            continue;
                        ++b.mispredicts[l];
                        Cycle r = b.done[l] + b.penalty[l];
                        if (r > b.redirect[l])
                            b.redirect[l] = r;
                    }
                }
            }
        }

        // ---- commit (in order): push the ROB and, with a
        // destination, release the previous mapping ----
        u64 *cyc =
            inst.region != 0 ? b.vectorCyc.data() : b.scalarCyc.data();
        u64 *robRow = &b.rob.slots[b.rob.pos * P];
        u64 *regRow = nullptr;
        const u64 *regPrev = nullptr;
        if (hasDst) {
            vmmx_assert(b.releases[inst.dstCls] < b.allocs[inst.dstCls],
                        "free-list release before its allocation");
            size_t prev = (freeList->pos ? freeList->pos : freeList->rows) - 1;
            regRow = &freeList->slots[freeList->pos * P];
            regPrev = &freeList->slots[prev * P];
        }
        for (size_t c = 0; c < C; c += V::W) {
            auto lc = V::load(&b.lastCommit[c]);
            auto ccV = V::max(V::add(V::load(&b.done[c]), one), lc);
            ccV = gatePass<V>(&b.cCur[c], &b.cUsed[c], &b.gateW[c], ccV);
            V::store(&b.lastCommit[c], ccV);
            V::store(&cyc[c], V::add(V::load(&cyc[c]), V::sub(ccV, lc)));
            V::store(&robRow[c], ccV);
            if (hasDst) {
                // RegFreeList::release()'s checks, for every live lane:
                // after every allocation, in commit order.
                auto bad = V::orM(V::notM(V::gtU(ccV, V::load(&last[c]))),
                                  V::ltU(ccV, V::load(&regPrev[c])));
                vmmx_assert(!(V::bits(bad) & liveBits<V>(b, c)),
                            "free-list releases must follow their "
                            "allocations in commit order");
                V::store(&regRow[c], ccV);
            }
        }
        b.rob.advance();
        if (hasDst) {
            freeList->advance();
            ++b.releases[inst.dstCls];
        }

        ++b.instructions;
        ++b.instByClass[inst.clsIdx];
    }
}

} // namespace vmmx::simd

#endif // VMMX_SIM_SIMD_STEP_HH
