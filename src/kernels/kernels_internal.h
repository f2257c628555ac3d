/**
 * @file
 * Internal seams between the kernel backends and the registry.
 *
 * Not installed API: only kernel_registry.cc, kernels_scalar.cc and
 * kernels_avx2.cc include this.
 */

#ifndef LAZYDP_KERNELS_KERNELS_INTERNAL_H
#define LAZYDP_KERNELS_KERNELS_INTERNAL_H

#include "kernels/kernel_registry.h"

namespace lazydp {
namespace kernels_detail {

/** @return the always-available scalar reference table. */
const KernelTable &scalarTable();

/**
 * @return the AVX2 table, or nullptr when the binary lacks the AVX2
 * translation unit (non-x86 compiler) or the CPU lacks AVX2/FMA.
 */
const KernelTable *avx2Table();

/**
 * Scalar keyed Box-Muller fill; also the remainder path of the AVX2
 * fill (identical counter mapping for trailing partial block groups).
 */
void gaussianFillKeyedScalar(const Philox4x32 &philox,
                             std::uint64_t ctr_hi, std::uint64_t lo_base,
                             float *dst, std::size_t dim, float sigma,
                             float scale, bool accumulate);

} // namespace kernels_detail
} // namespace lazydp

#endif // LAZYDP_KERNELS_KERNELS_INTERNAL_H
