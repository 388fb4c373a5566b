#include "sim/simd_dispatch.hh"

#include <atomic>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace vmmx::simd
{

namespace
{

#if defined(__x86_64__) || defined(__i386__)

/** xgetbv(0): which register state the OS saves/restores.  Only valid
 *  when cpuid reports OSXSAVE; callers check that first. */
u64
xcr0()
{
    u32 eax, edx;
    __asm__ __volatile__("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (u64(edx) << 32) | eax;
}

/**
 * The ax_ext probe: a vector extension is usable only when (a) cpuid
 * advertises the feature, and (b) for YMM/ZMM-register families, cpuid
 * advertises OSXSAVE and xgetbv confirms the OS context-switches the
 * wide state (XCR0 bits 1-2 for YMM, plus 5-7 for ZMM/opmask).
 */
u32
probeHost()
{
    u32 mask = 1u << u32(Path::Scalar);

    u32 eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return mask;

    bool osxsave = ecx & (1u << 27);
    u64 x = osxsave ? xcr0() : 0;
    bool ymmEnabled = (x & 0x6) == 0x6;
    bool zmmEnabled = (x & 0xe6) == 0xe6;

    u32 eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    if (!__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7))
        return mask;
    if ((ebx7 & (1u << 5)) && ymmEnabled) // AVX2
        mask |= 1u << u32(Path::Avx2);
    if ((ebx7 & (1u << 16)) && zmmEnabled) // AVX512F
        mask |= 1u << u32(Path::Avx512);
    return mask;
}

#else // non-x86 host: only context-major stepping exists

u32
probeHost()
{
    return 1u << u32(Path::Scalar);
}

#endif

/** Diagnostic for a rejected explicit path request, or "" if usable. */
std::string
rejectReason(Path p)
{
    u32 bit = 1u << u32(p);
    if (!(compiledMask() & bit))
        return std::string("SIMD path '") + pathName(p) +
               "' is not compiled into this binary; use VMMX_SIMD=auto "
               "or a path this build has (scalar always)";
    if (!(supportedMask() & bit))
        return std::string("SIMD path '") + pathName(p) +
               "' is not supported by this host CPU (cpuid/xgetbv probe "
               "failed); use VMMX_SIMD=auto or a narrower path";
    return "";
}

/** The pinned/resolved active path; numPaths = "not resolved yet". */
std::atomic<u8> activeOrdinal{numPaths};
std::mutex resolveMu;

/** Resolve `VMMX_SIMD` once: auto/unset -> bestPath(), a real path
 *  name -> that path or a fatal diagnostic, junk -> warn + auto. */
Path
resolveFromEnv()
{
    std::string text = env::str("VMMX_SIMD");
    if (!text.empty()) {
        Path p{};
        bool isAuto = false;
        if (!parsePath(text, p, isAuto)) {
            warn("VMMX_SIMD='%s' is not scalar|avx2|avx512|auto; "
                 "using auto",
                 text.c_str());
        } else if (!isAuto) {
            std::string why = rejectReason(p);
            if (!why.empty())
                fatal("VMMX_SIMD=%s: %s", text.c_str(), why.c_str());
            return p;
        }
    }
    return bestPath();
}

} // namespace

const char *
pathName(Path p)
{
    switch (p) {
      case Path::Scalar: return "scalar";
      case Path::Sse2: return "sse2";
      case Path::Avx2: return "avx2";
      case Path::Avx512: return "avx512";
    }
    panic("bad SIMD path %d", int(p));
}

bool
parsePath(std::string_view text, Path &p, bool &isAuto)
{
    isAuto = false;
    if (text == "auto") {
        isAuto = true;
        return true;
    }
    if (text == "scalar")
        p = Path::Scalar;
    else if (text == "sse2")
        p = Path::Sse2;
    else if (text == "avx2")
        p = Path::Avx2;
    else if (text == "avx512")
        p = Path::Avx512;
    else
        return false;
    return true;
}

u32
compiledMask()
{
    u32 mask = 1u << u32(Path::Scalar);
#ifdef VMMX_KERNEL_AVX2
    mask |= 1u << u32(Path::Avx2);
#endif
#ifdef VMMX_KERNEL_AVX512
    mask |= 1u << u32(Path::Avx512);
#endif
    return mask;
}

u32
supportedMask()
{
    static const u32 mask = probeHost();
    return mask;
}

Path
bestPath()
{
    u32 usable = compiledMask() & supportedMask();
    for (int p = numPaths - 1; p > 0; --p)
        if (usable & (1u << p))
            return Path(p);
    return Path::Scalar;
}

Path
activePath()
{
    u8 ord = activeOrdinal.load(std::memory_order_acquire);
    if (ord < numPaths)
        return Path(ord);
    std::lock_guard<std::mutex> lock(resolveMu);
    ord = activeOrdinal.load(std::memory_order_acquire);
    if (ord < numPaths)
        return Path(ord);
    Path p = resolveFromEnv();
    activeOrdinal.store(u8(p), std::memory_order_release);
    return p;
}

std::string
setActivePath(Path p)
{
    std::string why = rejectReason(p);
    if (!why.empty())
        return why;
    std::lock_guard<std::mutex> lock(resolveMu);
    activeOrdinal.store(u8(p), std::memory_order_release);
    return "";
}

void
setActivePathAuto()
{
    std::lock_guard<std::mutex> lock(resolveMu);
    activeOrdinal.store(u8(bestPath()), std::memory_order_release);
}

Path
pathFor(size_t batchWidth)
{
    return batchWidth >= 2 ? activePath() : Path::Scalar;
}

StepFn
stepFn(Path p)
{
    switch (p) {
      case Path::Scalar:
        return nullptr;
#ifdef VMMX_KERNEL_AVX2
      case Path::Avx2:
        return &stepBlockAvx2;
#endif
#ifdef VMMX_KERNEL_AVX512
      case Path::Avx512:
        return &stepBlockAvx512;
#endif
      default:
        panic("SIMD path '%s' is not compiled into this binary",
              pathName(p));
    }
}

} // namespace vmmx::simd
