/**
 * @file
 * The AVX-512 backend: the AVX2 table with its GEMM entry replaced by
 * gemm_tile.h over 512-bit traits.
 *
 * Compiled with `-mavx2 -mfma -mavx512f -ffp-contract=fast` regardless
 * of LAZYDP_NATIVE (see CMakeLists.txt), so the backend exists in
 * portable builds and is chosen at RUNTIME. The same rules as
 * kernels_avx2.cc apply: nothing here runs unless avx512Table()
 * returned non-null, and includes stay minimal so no inline function
 * compiled with AVX-512 codegen can leak into the rest of the binary.
 * Only the GEMM is widened: the other primitives are memory-bound or
 * already limited by the AVX2 polynomial chains, so a second copy of
 * them would add code without adding speed.
 */

#include "kernels/kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "kernels/gemm_tile.h"

namespace lazydp {
namespace kernels_detail {

namespace {

/** 512-bit traits for gemm_tile.h: 8 x 32 tiles, 128-deep k-blocks. */
struct Avx512Vec
{
    using Reg = __m512;
    using Mask = __mmask16;
    static constexpr std::size_t kWidth = 16;
    static constexpr int kMr = 8; // 16 accumulators + 2 B + 1 A of 32
    static constexpr std::size_t kKc = 128;

    static Reg zero() { return _mm512_setzero_ps(); }
    static Reg load(const float *p) { return _mm512_loadu_ps(p); }
    static Reg maskLoad(const float *p, Mask m)
    {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void store(float *p, Reg v) { _mm512_storeu_ps(p, v); }
    static void maskStore(float *p, Mask m, Reg v)
    {
        _mm512_mask_storeu_ps(p, m, v);
    }
    static Reg bcast(const float *p) { return _mm512_set1_ps(*p); }
    static Reg fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
    /** @return lanes [0, n) set, n <= 16. */
    static Mask mask(std::size_t n)
    {
        return static_cast<Mask>(n >= 16 ? 0xFFFFu : (1u << n) - 1u);
    }
};

} // namespace

const KernelTable *
avx512Table(const CpuFeatures &cpu)
{
    const KernelTable *avx2 = avx2Table(cpu);
    if (avx2 == nullptr || !cpu.avx512f)
        return nullptr;
    static const KernelTable table = [avx2] {
        KernelTable t = *avx2;
        t.backend = KernelBackend::Avx512;
        t.name = "avx512";
        t.gemm = gemmTiled<Avx512Vec>;
        return t;
    }();
    return &table;
}

} // namespace kernels_detail
} // namespace lazydp

#else // compiler without AVX-512F: the backend does not exist

namespace lazydp {
namespace kernels_detail {

const KernelTable *
avx512Table(const CpuFeatures &)
{
    return nullptr;
}

} // namespace kernels_detail
} // namespace lazydp

#endif
