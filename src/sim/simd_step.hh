/**
 * @file
 * The batched step kernel, written once against a tiny vector-ops
 * trait and instantiated per host ISA (see sim/simd_dispatch.hh for
 * how an instantiation is chosen at runtime).
 *
 * stepBlockT() advances every lane of a SimBatch by one DecodedInst at
 * a time, replicating SimContext::step() phase for phase.  All cycle
 * arithmetic is unsigned 64-bit adds, subtracts, compares, maxes and
 * blends with no lane interaction, so every instantiation is
 * bit-identical to SimContext::step() by construction -- the only
 * differences between paths are how many lanes one vector op covers.
 *
 * Exactness of the compare tricks: cycle values are bounded far below
 * 2^62 (kInf is the pool sentinel), so unsigned u64 ordering coincides
 * with signed ordering and the AVX2 signed-compare idiom is exact.
 * The pool min scans reproduce SlotPool's first-strict-minimum scan
 * order, so tie-breaking is identical, not just equivalent.  The issue
 * queue is not vectorized: each lane calls its context's
 * IssueQueueModel, as it does its free lists.
 *
 * This header is included only by the per-ISA kernel translation
 * units, each compiled with the matching -m flags; the ISA-specific
 * ops structs are guarded by the compiler's own feature macros so the
 * header itself stays portable.
 */

#ifndef VMMX_SIM_SIMD_STEP_HH
#define VMMX_SIM_SIMD_STEP_HH

#include <algorithm>

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
    static Vec bcast(u64 x) { return _mm256_set1_epi64x(s64(x)); }
    static Vec add(Vec a, Vec b) { return _mm256_add_epi64(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm256_sub_epi64(a, b); }
    static Mask gtU(Vec a, Vec b) { return _mm256_cmpgt_epi64(a, b); }
    static Mask ltU(Vec a, Vec b) { return _mm256_cmpgt_epi64(b, a); }
    static Vec max(Vec a, Vec b) { return blend(gtU(a, b), a, b); }
    static Vec blend(Mask m, Vec a, Vec b)
    {
        return _mm256_blendv_epi8(b, a, m);
    }
    static Vec addWhere(Vec v, Mask m) { return _mm256_sub_epi64(v, m); }
    static Mask andM(Mask a, Mask b) { return _mm256_and_si256(a, b); }
    static Mask notM(Mask a)
    {
        return _mm256_xor_si256(a, _mm256_set1_epi32(-1));
    }
};
#endif // __AVX2__

#ifdef __AVX512F__
/** Eight lanes per op with real predicate masks and native unsigned
 *  64-bit compares and maxes. */
struct Avx512Ops
{
    static constexpr size_t W = 8;
    using Vec = __m512i;
    using Mask = __mmask8;

    static Vec load(const u64 *p) { return _mm512_loadu_si512(p); }
    static void store(u64 *p, Vec v) { _mm512_storeu_si512(p, v); }
    static Vec bcast(u64 x) { return _mm512_set1_epi64(s64(x)); }
    static Vec add(Vec a, Vec b) { return _mm512_add_epi64(a, b); }
    static Vec sub(Vec a, Vec b) { return _mm512_sub_epi64(a, b); }
    static Mask gtU(Vec a, Vec b) { return _mm512_cmpgt_epu64_mask(a, b); }
    static Mask ltU(Vec a, Vec b) { return _mm512_cmplt_epu64_mask(a, b); }
    static Vec max(Vec a, Vec b) { return _mm512_max_epu64(a, b); }
    static Vec blend(Mask m, Vec a, Vec b)
    {
        return _mm512_mask_blend_epi64(m, b, a);
    }
    static Vec addWhere(Vec v, Mask m)
    {
        return _mm512_mask_add_epi64(v, m, v, _mm512_set1_epi64(1));
    }
    static Mask andM(Mask a, Mask b) { return Mask(a & b); }
    static Mask notM(Mask a) { return Mask(~a); }
};
#endif // __AVX512F__

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
 * SlotPool::acquire() minus the occupancy writeback: a first-strict-
 * minimum scan over the pool's slot rows per lane, then
 * issue = max(cIn, earliest free).  Leaves the acquired start cycles
 * in b.issue and the winning slot index per lane in b.t1; the caller
 * writes the occupancy back (it can differ per lane).
 */
template <class V>
inline void
poolAcquire(SimBatch &b, const SimBatch::Pool &pool, const u64 *cIn)
{
    const size_t P = b.padded;
    for (size_t c = 0; c < P; c += V::W) {
        auto bestV = V::bcast(SimBatch::kInf);
        auto bestI = V::bcast(0);
        for (size_t r = 0; r < pool.rows; ++r) {
            auto v = V::load(&pool.slots[r * P + c]);
            auto lt = V::ltU(v, bestV);
            bestV = V::blend(lt, v, bestV);
            bestI = V::blend(lt, V::bcast(r), bestI);
        }
        V::store(&b.issue[c], V::max(V::load(&cIn[c]), bestV));
        V::store(&b.t1[c], bestI);
    }
}

/** The occupancy writeback after poolAcquire(): occupy each lane's
 *  winning slot until issue + max(occ, 1).  @p occArr overrides
 *  @p occConst per lane when non-null. */
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
    const auto one = V::bcast(1);

    for (size_t k = 0; k < n; ++k) {
        const DecodedInst &inst = insts[k];
        const bool takesIq = inst.has(DecodedInst::kTakesIq);
        const bool hasDst = inst.dstCls != DecodedInst::noDst;

        // ---- fetch ----
        for (size_t c = 0; c < P; c += V::W) {
            auto fetch = gatePass<V>(&b.fCur[c], &b.fUsed[c], &b.gateW[c],
                                     V::load(&b.redirect[c]));
            V::store(&b.rn[c],
                     V::add(fetch, V::load(&b.frontDepth[c])));
        }

        // ---- ROB space ----
        for (size_t l = 0; l < L; ++l)
            b.robFree[l] = b.robRing[l][b.robPos[l]];
        for (size_t c = 0; c < P; c += V::W) {
            auto rnV = V::load(&b.rn[c]);
            auto rf1 = V::add(V::load(&b.robFree[c]), one);
            auto st = V::gtU(rf1, rnV);
            V::store(&b.rn[c], V::blend(st, rf1, rnV));
            V::store(&b.stallRob[c],
                     V::addWhere(V::load(&b.stallRob[c]), st));
        }

        // ---- issue-queue space ----
        if (takesIq) {
            for (size_t l = 0; l < L; ++l) {
                Cycle r = b.iqWaitForSpace(l, b.rn[l]);
                if (r > b.rn[l]) {
                    b.rn[l] = r;
                    ++b.stallIq[l];
                }
            }
        }

        // ---- physical destination register ----
        if (hasDst) {
            for (size_t l = 0; l < L; ++l) {
                Cycle r = b.flAllocate(l, inst.dstCls, b.rn[l]);
                if (r > b.rn[l]) {
                    b.rn[l] = r;
                    ++b.stallRegs[l];
                }
            }
        }

        // ---- rename gate + operand readiness ----
        const bool readsDst = inst.has(DecodedInst::kReadsDst);
        for (size_t c = 0; c < P; c += V::W) {
            auto rnV = gatePass<V>(&b.rCur[c], &b.rUsed[c], &b.gateW[c],
                                   V::load(&b.rn[c]));
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
            poolAcquire<V>(b, b.intPool, b.ready.data());
            poolWriteback(b, b.intPool, nullptr,
                          FuType(inst.fu) == FuType::IntMul ? inst.mulOcc
                                                            : 1);
            auto lat = V::bcast(inst.latency);
            for (size_t c = 0; c < P; c += V::W)
                V::store(&b.done[c], V::add(V::load(&b.issue[c]), lat));
            break;
          }
          case FuType::Fp: {
            poolAcquire<V>(b, b.fpPool, b.ready.data());
            poolWriteback(b, b.fpPool, nullptr, 1);
            auto lat = V::bcast(inst.latency);
            for (size_t c = 0; c < P; c += V::W)
                V::store(&b.done[c], V::add(V::load(&b.issue[c]), lat));
            break;
          }
          case FuType::Simd: {
            if (inst.vl == 0) {
                std::fill_n(b.occ.data(), P, u64(1));
            } else if (inst.transp) {
                std::fill_n(b.occ.data(), P, u64(inst.vl));
            } else if (inst.vl <= 16) {
                const u64 *row = &b.lanesOcc[size_t(inst.vl) * P];
                for (size_t c = 0; c < P; c += V::W)
                    V::store(&b.occ[c], V::load(&row[c]));
            } else {
                for (size_t l = 0; l < L; ++l)
                    b.occ[l] = (inst.vl + b.lanesPerFu[l] - 1) /
                               b.lanesPerFu[l];
            }
            poolAcquire<V>(b, b.simdIssuePool, b.ready.data());
            poolWriteback(b, b.simdIssuePool, nullptr, 1);
            poolAcquire<V>(b, b.simdPool, b.issue.data());
            poolWriteback(b, b.simdPool, b.occ.data(), 1);
            // done = issue + occ - 1 + latency (occ >= 1, so the
            // unsigned wrap of latency - 1 cancels exactly).
            auto latM1 = V::bcast(u64(inst.latency) - 1);
            for (size_t c = 0; c < P; c += V::W)
                V::store(&b.done[c],
                         V::add(V::add(V::load(&b.issue[c]),
                                       V::load(&b.occ[c])),
                                latM1));
            break;
          }
          case FuType::Mem: {
            for (size_t l = 0; l < L; ++l)
                b.memAccess(l, inst);
            ++b.memOps;
            break;
          }
          case FuType::None: {
            for (size_t c = 0; c < P; c += V::W) {
                auto is = V::add(V::load(&b.rn[c]), one);
                V::store(&b.issue[c], is);
                V::store(&b.done[c], is);
            }
            break;
          }
          default:
            panic("unknown FU type");
        }

        if (takesIq) {
            for (size_t l = 0; l < L; ++l)
                b.iqInsert(l, b.issue[l]);
        }

        // ---- writeback ----
        if (hasDst) {
            u64 *row = &b.regReady[size_t(inst.dstReg) * P];
            for (size_t c = 0; c < P; c += V::W)
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
                        for (size_t c = 0; c < P; c += V::W) {
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

        // ---- commit (in order) ----
        u64 *cyc =
            inst.region != 0 ? b.vectorCyc.data() : b.scalarCyc.data();
        for (size_t c = 0; c < P; c += V::W) {
            auto lc = V::load(&b.lastCommit[c]);
            auto ccV = V::max(V::add(V::load(&b.done[c]), one), lc);
            ccV = gatePass<V>(&b.cCur[c], &b.cUsed[c], &b.gateW[c], ccV);
            V::store(&b.cc[c], ccV);
            V::store(&b.lastCommit[c], ccV);
            V::store(&cyc[c], V::add(V::load(&cyc[c]), V::sub(ccV, lc)));
        }

        if (hasDst) {
            for (size_t l = 0; l < L; ++l)
                b.flRelease(l, inst.dstCls, b.cc[l]);
        }

        for (size_t l = 0; l < L; ++l) {
            b.robRing[l][b.robPos[l]] = b.cc[l];
            if (++b.robPos[l] == b.robSize[l])
                b.robPos[l] = 0;
        }

        ++b.instructions;
        ++b.instByClass[inst.clsIdx];
    }
}

} // namespace vmmx::simd

#endif // VMMX_SIM_SIMD_STEP_HH
