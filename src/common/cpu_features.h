/**
 * @file
 * Host CPU feature detection (AVX2 / AVX-512F / FMA).
 *
 * The kernel registry selects its backend at startup from these flags;
 * tests use them to skip ISA-specific cases on older hosts. A flag is
 * set only when the CPU reports the instructions (cpuid) AND the OS
 * saves the register state they need (xgetbv), so a set flag means the
 * instructions can actually run.
 */

#ifndef LAZYDP_COMMON_CPU_FEATURES_H
#define LAZYDP_COMMON_CPU_FEATURES_H

namespace lazydp {

/** Feature flags of the executing CPU. */
struct CpuFeatures
{
    bool avx2 = false;    //!< AVX2 (256-bit integer + FP)
    bool avx512f = false; //!< AVX-512 Foundation (zmm + opmask state)
    bool fma = false;     //!< fused multiply-add (ymm state)
};

/** @return cached feature flags of this host (queried once via cpuid). */
const CpuFeatures &cpuFeatures();

} // namespace lazydp

#endif // LAZYDP_COMMON_CPU_FEATURES_H
