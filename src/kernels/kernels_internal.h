/**
 * @file
 * Internal seams between the kernel backends and the registry.
 *
 * Not installed API: the registry and the backend translation units
 * include this, and the kernel tests use the feature-parameterized
 * selection to exercise fallbacks this host cannot show.
 */

#ifndef LAZYDP_KERNELS_KERNELS_INTERNAL_H
#define LAZYDP_KERNELS_KERNELS_INTERNAL_H

#include "common/cpu_features.h"
#include "kernels/kernel_registry.h"

namespace lazydp {
namespace kernels_detail {

/** @return the always-available scalar reference table. */
const KernelTable &scalarTable();

/**
 * @return the AVX2 table, or nullptr when the binary lacks the AVX2
 * translation unit (non-x86 compiler) or @p cpu lacks AVX2/FMA.
 */
const KernelTable *avx2Table(const CpuFeatures &cpu);

/**
 * @return the AVX-512 table (the AVX2 table with the AVX-512F GEMM),
 * or nullptr when the binary lacks that translation unit or @p cpu
 * lacks AVX-512F, AVX2 or FMA.
 */
const KernelTable *avx512Table(const CpuFeatures &cpu);

/**
 * @return the table for @p b on a CPU with @p cpu 's features (Auto
 * resolves to the widest available), or nullptr when @p b cannot run.
 */
const KernelTable *resolveTable(KernelBackend b, const CpuFeatures &cpu);

/**
 * resolveTable with the registry's fallback: an unavailable explicit
 * request warns and returns the scalar table.
 */
const KernelTable &selectTable(KernelBackend b, const CpuFeatures &cpu);

/**
 * Scalar keyed Box-Muller fill; also the remainder path of the AVX2
 * fill (identical counter mapping for trailing partial block groups).
 */
void gaussianFillKeyedScalar(const Philox4x32 &philox,
                             std::uint64_t ctr_hi, std::uint64_t lo_base,
                             float *dst, std::size_t dim, float sigma,
                             float scale, bool accumulate);

/**
 * Scalar GEMM (the KernelTable::gemm reference); the vector backends
 * fall back to it for B strides they do not tile.
 */
void gemmScalar(std::size_t m, std::size_t n, std::size_t k,
                const float *a, std::size_t a_rs, std::size_t a_ks,
                const float *b, std::size_t b_ks, std::size_t b_js,
                float *c, std::size_t ldc, bool accumulate);

} // namespace kernels_detail
} // namespace lazydp

#endif // LAZYDP_KERNELS_KERNELS_INTERNAL_H
