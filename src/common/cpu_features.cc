#include "common/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace lazydp {

namespace {

CpuFeatures
detect()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) ||
        (ecx & bit_OSXSAVE) == 0)
        return f; // no xgetbv: the OS enables no vector state
    f.fma = (ecx & bit_FMA) != 0;
    // XCR0: bits 1-2 = xmm/ymm state, bits 5-7 = opmask/zmm state.
    unsigned xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    const bool os_ymm = (xcr0_lo & 0x06u) == 0x06u;
    const bool os_zmm = (xcr0_lo & 0xE6u) == 0xE6u;
    f.fma = f.fma && os_ymm;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        f.avx2 = os_ymm && (ebx & bit_AVX2) != 0;
        f.avx512f = os_zmm && (ebx & bit_AVX512F) != 0;
    }
#endif
    return f;
}

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = detect();
    return features;
}

} // namespace lazydp
