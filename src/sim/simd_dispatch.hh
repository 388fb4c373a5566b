/**
 * @file
 * Runtime selection of the host-SIMD batch-stepping kernel.
 *
 * The SoA batch stepper (sim/sim_batch.hh) is one templated kernel
 * instantiated at several host vector widths: a scalar reference (one
 * configuration per "lane"), SSE2 (2 lanes), AVX2 (4) and AVX-512 (8).
 * Each instantiation lives in its own translation unit compiled with
 * the matching -m flags, so the library as a whole stays runnable on
 * any x86-64 (and non-x86) host: nothing outside those files emits
 * wide instructions.
 *
 * Which kernel actually runs is decided once per process: the cpuid
 * probe (the classic ax_ext capability check -- feature bit plus
 * OSXSAVE/xgetbv state-enable for the wide register files) yields the
 * supported set, the build yields the compiled set, and the widest
 * path in both wins.  `VMMX_SIMD` (or setActivePath) can pin any
 * compiled+supported path instead; asking for a path the host cannot execute is
 * a hard error, because silently falling back would mislabel every
 * benchmark number recorded downstream.
 *
 * All kernels are bit-identical by construction -- the timing model is
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

/** The batch-stepping kernels, narrowest first.  Ordinals are the
 *  bit positions of the compiled/supported masks. */
enum class Path : u8
{
    Scalar = 0, ///< SoA reference kernel, one config per step
    Sse2 = 1,   ///< 2 configs per vector op
    Avx2 = 2,   ///< 4 configs per vector op
    Avx512 = 3, ///< 8 configs per vector op
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
 *  Scalar is always compiled. */
u32 compiledMask();

/** Bitmask of paths the host CPU can execute, from cpuid (feature
 *  bits) plus xgetbv (OS enabled the YMM/ZMM state).  Scalar is
 *  always supported. */
u32 supportedMask();

/** Widest path that is both compiled and supported. */
Path bestPath();

/**
 * The path runBatch() uses for batched (>= 2 config) groups.  Resolved
 * once on first use: `VMMX_SIMD` if set (junk warns and falls back to
 * auto, per the env policy; a real path name that is unsupported or
 * not compiled in is fatal), otherwise bestPath().
 */
Path activePath();

/**
 * Pin the active path explicitly (tests and benches).  @return an empty
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

/** Signature shared by every kernel instantiation. */
using StepFn = void (*)(SimBatch &, const DecodedInst *, size_t);

/** Kernel entry for @p p; panics if the path was not compiled in. */
StepFn stepFn(Path p);

// Kernel entry points, one per translation unit.  Only the ones the
// build compiled (VMMX_KERNEL_*) exist; stepFn() guards access.
void stepBlockScalar(SimBatch &b, const DecodedInst *insts, size_t n);
#ifdef VMMX_KERNEL_SSE2
void stepBlockSse2(SimBatch &b, const DecodedInst *insts, size_t n);
#endif
#ifdef VMMX_KERNEL_AVX2
void stepBlockAvx2(SimBatch &b, const DecodedInst *insts, size_t n);
#endif
#ifdef VMMX_KERNEL_AVX512
void stepBlockAvx512(SimBatch &b, const DecodedInst *insts, size_t n);
#endif

} // namespace simd

} // namespace vmmx

#endif // VMMX_SIM_SIMD_DISPATCH_HH
