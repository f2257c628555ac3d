/**
 * @file
 * The register-tiled GEMM behind KernelTable::gemm, written once over a
 * vector-traits class and instantiated by each vector backend's
 * translation unit (kernels_avx2.cc with 256-bit traits,
 * kernels_avx512.cc with 512-bit traits).
 *
 * Order contract: every C(i, j) is one fp32 FMA chain over p = 0..k-1
 * ascending, from 0 or from C. A tile keeps R rows x (NV * width)
 * columns of C in registers while p runs over one k-block; k-blocks
 * store C and the next block reloads it, which is exact, so the chain
 * is the scalar reference's chain whatever the tile or block sizes.
 *
 * Layouts: B rows contiguous in j (b_js == 1: C = A*B, C = A^T*B) are
 * read in place; B stored transposed (b_ks == 1: C = A*B^T) is
 * transposed one k-block x tile-width panel at a time into a stack
 * buffer that every row tile of the call then reuses. Nothing is
 * allocated and nothing depends on the weights' history.
 *
 * Everything here has internal linkage (anonymous namespace): each
 * including TU is compiled with its own ISA flags, and an inline
 * function with external linkage could be merged across them by the
 * linker, putting AVX-512 code on the AVX2 path.
 */

#ifndef LAZYDP_KERNELS_GEMM_TILE_H
#define LAZYDP_KERNELS_GEMM_TILE_H

#include <cstddef>
#include <immintrin.h>

#include "kernels/kernels_internal.h"

namespace lazydp {
namespace kernels_detail {
namespace {

inline std::size_t
minSize(std::size_t a, std::size_t b)
{
    return a < b ? a : b;
}

/**
 * dst[q*ldd + l] = src[l*ld + q] for an 8 x 8 block (AVX2 shuffles;
 * every backend that includes this header has AVX2).
 */
inline void
transpose8x8(const float *src, std::size_t ld, float *dst, std::size_t ldd)
{
    const __m256 r0 = _mm256_loadu_ps(src);
    const __m256 r1 = _mm256_loadu_ps(src + ld);
    const __m256 r2 = _mm256_loadu_ps(src + 2 * ld);
    const __m256 r3 = _mm256_loadu_ps(src + 3 * ld);
    const __m256 r4 = _mm256_loadu_ps(src + 4 * ld);
    const __m256 r5 = _mm256_loadu_ps(src + 5 * ld);
    const __m256 r6 = _mm256_loadu_ps(src + 6 * ld);
    const __m256 r7 = _mm256_loadu_ps(src + 7 * ld);
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    _mm256_storeu_ps(dst, _mm256_permute2f128_ps(u0, u4, 0x20));
    _mm256_storeu_ps(dst + ldd, _mm256_permute2f128_ps(u1, u5, 0x20));
    _mm256_storeu_ps(dst + 2 * ldd, _mm256_permute2f128_ps(u2, u6, 0x20));
    _mm256_storeu_ps(dst + 3 * ldd, _mm256_permute2f128_ps(u3, u7, 0x20));
    _mm256_storeu_ps(dst + 4 * ldd, _mm256_permute2f128_ps(u0, u4, 0x31));
    _mm256_storeu_ps(dst + 5 * ldd, _mm256_permute2f128_ps(u1, u5, 0x31));
    _mm256_storeu_ps(dst + 6 * ldd, _mm256_permute2f128_ps(u2, u6, 0x31));
    _mm256_storeu_ps(dst + 7 * ldd, _mm256_permute2f128_ps(u3, u7, 0x31));
}

/**
 * Panel transpose: pack[q*ldp + l] = src[l*ld + q] for l < rows,
 * q < cols (src holds B^T: row l is output column j0+l).
 */
inline void
packTransposed(const float *src, std::size_t ld, std::size_t rows,
               std::size_t cols, float *pack, std::size_t ldp)
{
    std::size_t l = 0;
    for (; l + 8 <= rows; l += 8) {
        std::size_t q = 0;
        for (; q + 8 <= cols; q += 8)
            transpose8x8(src + l * ld + q, ld, pack + q * ldp + l, ldp);
        for (; q < cols; ++q) {
            for (std::size_t r = l; r < l + 8; ++r)
                pack[q * ldp + r] = src[r * ld + q];
        }
    }
    for (; l < rows; ++l) {
        for (std::size_t q = 0; q < cols; ++q)
            pack[q * ldp + l] = src[l * ld + q];
    }
}

/**
 * One R x (NV * V::kWidth) tile of C over a k-block of length k. B
 * rows are ldb apart and contiguous in j. Full tiles use plain
 * loads/stores; edge tiles mask columns past the matrix (m0 covers the
 * first vector, m1 the second).
 */
template <class V, int R, int NV, bool Full>
inline void
gemmTile(std::size_t k, const float *a, std::size_t a_rs,
         std::size_t a_ks, const float *b, std::size_t ldb, float *c,
         std::size_t ldc, bool load_c, typename V::Mask m0,
         typename V::Mask m1)
{
    constexpr std::size_t W = V::kWidth;
    typename V::Reg acc[R][NV];
    for (int r = 0; r < R; ++r) {
        const float *cr = c + r * ldc;
        for (int v = 0; v < NV; ++v) {
            if (!load_c)
                acc[r][v] = V::zero();
            else if (Full)
                acc[r][v] = V::load(cr + v * W);
            else
                acc[r][v] = V::maskLoad(cr + v * W, v == 0 ? m0 : m1);
        }
    }
    for (std::size_t p = 0; p < k; ++p) {
        const float *bp = b + p * ldb;
        typename V::Reg bv[NV];
        for (int v = 0; v < NV; ++v) {
            bv[v] = Full ? V::load(bp + v * W)
                         : V::maskLoad(bp + v * W, v == 0 ? m0 : m1);
        }
        const float *ap = a + p * a_ks;
        for (int r = 0; r < R; ++r) {
            const typename V::Reg av = V::bcast(ap + r * a_rs);
            for (int v = 0; v < NV; ++v)
                acc[r][v] = V::fma(av, bv[v], acc[r][v]);
        }
    }
    for (int r = 0; r < R; ++r) {
        float *cr = c + r * ldc;
        for (int v = 0; v < NV; ++v) {
            if (Full)
                V::store(cr + v * W, acc[r][v]);
            else
                V::maskStore(cr + v * W, v == 0 ? m0 : m1, acc[r][v]);
        }
    }
}

/** Dispatch one tile with runtime row count r (1..V::kMr). */
template <class V, int R>
inline void
gemmTileRows(std::size_t rows, std::size_t cols, std::size_t k,
             const float *a, std::size_t a_rs, std::size_t a_ks,
             const float *b, std::size_t ldb, float *c, std::size_t ldc,
             bool load_c)
{
    if constexpr (R > 1) {
        if (rows < static_cast<std::size_t>(R)) {
            gemmTileRows<V, R - 1>(rows, cols, k, a, a_rs, a_ks, b, ldb,
                                   c, ldc, load_c);
            return;
        }
    }
    constexpr std::size_t W = V::kWidth;
    if (cols == 2 * W) {
        gemmTile<V, R, 2, true>(k, a, a_rs, a_ks, b, ldb, c, ldc, load_c,
                                V::mask(W), V::mask(W));
    } else if (cols > W) {
        gemmTile<V, R, 2, false>(k, a, a_rs, a_ks, b, ldb, c, ldc,
                                 load_c, V::mask(W), V::mask(cols - W));
    } else {
        gemmTile<V, R, 1, false>(k, a, a_rs, a_ks, b, ldb, c, ldc,
                                 load_c, V::mask(cols), V::mask(0));
    }
}

/** KernelTable::gemm over the traits V (see kernel_registry.h). */
template <class V>
void
gemmTiled(std::size_t m, std::size_t n, std::size_t k, const float *a,
          std::size_t a_rs, std::size_t a_ks, const float *b,
          std::size_t b_ks, std::size_t b_js, float *c, std::size_t ldc,
          bool accumulate)
{
    const bool direct = b_js == 1;
    if (!direct && b_ks != 1) {
        gemmScalar(m, n, k, a, a_rs, a_ks, b, b_ks, b_js, c, ldc,
                   accumulate);
        return;
    }
    constexpr std::size_t kNr = 2 * V::kWidth;
    constexpr std::size_t kKc = V::kKc;
    alignas(64) float pack[kKc * kNr];
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
        const std::size_t cols = minSize(kNr, n - j0);
        // k == 0 still runs one empty block: it zeroes C or keeps it.
        std::size_t p0 = 0;
        do {
            const std::size_t kc = minSize(kKc, k - p0);
            const float *bp = b + p0 * b_ks + j0;
            std::size_t ldb = b_ks;
            if (!direct) {
                packTransposed(b + j0 * b_js + p0, b_js, cols, kc, pack,
                               kNr);
                bp = pack;
                ldb = kNr;
            }
            const bool load_c = accumulate || p0 > 0;
            for (std::size_t i0 = 0; i0 < m; i0 += V::kMr) {
                gemmTileRows<V, V::kMr>(
                    minSize(V::kMr, m - i0), cols, kc,
                    a + i0 * a_rs + p0 * a_ks, a_rs, a_ks, bp, ldb,
                    c + i0 * ldc + j0, ldc, load_c);
            }
            p0 += kc;
        } while (p0 < k);
    }
}

} // namespace
} // namespace kernels_detail
} // namespace lazydp

#endif // LAZYDP_KERNELS_GEMM_TILE_H
