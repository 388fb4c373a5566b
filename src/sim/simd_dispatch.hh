/**
 * @file
 * Runtime selection of how a batched group steps.
 *
 * A group of N >= 2 configurations steps one of two ways (BatchRun,
 * sim/sim_context.hh).  On the `scalar` path each configuration runs
 * the oracle's own SimContext::step over the shared decoded block in
 * turn (context-major).  On the wide paths the SoA batch stepper
 * (sim/sim_batch.hh) advances all N per record as host vector lanes:
 * one templated kernel instantiated for AVX2 (4 lanes) and AVX-512
 * (8), each in its own translation unit compiled with the matching -m
 * flags, so the library as a whole stays runnable on any x86-64 (and
 * non-x86) host: nothing outside those files emits wide instructions.
 * `sse2` is a retired name that no build compiles; it keeps the path
 * ordinals and per-path report cells stable.
 *
 * Which path actually runs is decided once per process: the cpuid
 * probe (the classic ax_ext capability check -- feature bit plus
 * OSXSAVE/xgetbv state-enable for the wide register files) yields the
 * supported set, the build yields the compiled set, and the widest
 * path in both wins.  `VMMX_SIMD` (or setActivePath) can pin any
 * compiled+supported path instead; asking for a path the host cannot execute is
 * a hard error, because silently falling back would mislabel every
 * benchmark number recorded downstream.
 *
 * All paths are bit-identical by construction -- the timing model is
 * pure u64 arithmetic with no lane interaction -- and the randomized
 * grid tests assert it against the serial fused path for every
 * compiled path on every run.
 */

#ifndef VMMX_SIM_SIMD_DISPATCH_HH
#define VMMX_SIM_SIMD_DISPATCH_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace vmmx
{

struct SimBatch;
struct DecodedInst;

namespace simd
{

/** The batch-stepping paths, narrowest first.  Ordinals are the bit
 *  positions of the compiled/supported masks. */
enum class Path : u8
{
    Scalar = 0, ///< context-major: SimContext::step per config
    Sse2 = 1,   ///< retired; never compiled
    Avx2 = 2,   ///< SoA kernel, 4 configs per vector op
    Avx512 = 3, ///< SoA kernel, 8 configs per vector op
};

constexpr unsigned numPaths = 4;

/** Canonical lower-case name ("scalar", "sse2", "avx2", "avx512"). */
const char *pathName(Path p);

/**
 * Parse a path name or "auto".  @return false on junk; on success
 * either @p isAuto is set (text was "auto") or @p p holds the path.
 */
bool parsePath(std::string_view text, Path &p, bool &isAuto);

/** Bitmask of paths this binary was built with (bit = ordinal).
 *  Scalar is always compiled; Sse2 never is. */
u32 compiledMask();

/** Bitmask of the wide paths the host CPU can execute, from cpuid
 *  (feature bits) plus xgetbv (OS enabled the YMM/ZMM state).  Scalar
 *  is always supported. */
u32 supportedMask();

/** Widest path that is both compiled and supported. */
Path bestPath();

/**
 * The path BatchRun uses for batched (>= 2 config) groups.  Resolved
 * once on first use: `VMMX_SIMD` if set (junk warns and falls back to
 * auto, per the env policy; a real path name that is unsupported or
 * not compiled in is fatal), otherwise bestPath().
 */
Path activePath();

/**
 * Pin the active path explicitly (tests and perfbench).  @return an empty
 * string on success, else a diagnostic naming the path and why it was
 * rejected (not compiled in / host cpuid lacks it); the active path is
 * unchanged on failure.
 */
std::string setActivePath(Path p);

/** Reset the pin back to auto-selection (bestPath()). */
void setActivePathAuto();

/** The path a batch of @p batchWidth configurations runs on: width-1
 *  batches take the fused serial step (always scalar), wider batches
 *  take activePath().  This is what telemetry stamps per unit. */
Path pathFor(size_t batchWidth);

/** Signature shared by every SoA kernel instantiation. */
using StepFn = void (*)(SimBatch &, const DecodedInst *, size_t);

/** SoA kernel entry for @p p, or null for Scalar (the group steps
 *  context-major); panics if a wide path was not compiled in. */
StepFn stepFn(Path p);

// Kernel entry points, one per translation unit.  Only the ones the
// build compiled (VMMX_KERNEL_*) exist; stepFn() guards access.
#ifdef VMMX_KERNEL_AVX2
void stepBlockAvx2(SimBatch &b, const DecodedInst *insts, size_t n);
#endif
#ifdef VMMX_KERNEL_AVX512
void stepBlockAvx512(SimBatch &b, const DecodedInst *insts, size_t n);
#endif

} // namespace simd

} // namespace vmmx

#endif // VMMX_SIM_SIMD_DISPATCH_HH
