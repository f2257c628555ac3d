/**
 * @file
 * Runtime-dispatched SIMD kernel registry for the DP hot loops.
 *
 * Every data-streaming primitive the training loop leans on — the MLP
 * and dot-interaction GEMM, the fused square-accumulate behind
 * per-example gradient norms, the scale-and-add of clipped gradient
 * accumulation, the keyed-Philox Box-Muller fill, and the embedding
 * pooling/scatter kernels — exists as one table per backend:
 *
 *  - **scalar**: the reference, plain C++ loops compiled for the
 *    baseline ISA;
 *  - **avx2**: AVX2+FMA variants, compiled in their own translation
 *    unit with `-mavx2 -mfma` so they exist even in portable
 *    (`-DLAZYDP_NATIVE=OFF`) builds and are selected at RUNTIME;
 *  - **avx512**: the avx2 table with the GEMM entry replaced by an
 *    AVX-512F register tile (its own `-mavx512f` translation unit).
 *
 * One backend is active per process, chosen at startup from (highest
 * priority first) the `--kernels=scalar|avx2|avx512|auto` flag of the
 * tools and benches, the `LAZYDP_KERNELS` environment variable, or
 * `auto` (the widest backend the executing CPU and OS support, per the
 * common/cpu_features cpuid/xgetbv probe).
 *
 * Determinism contract:
 *
 *  - Per kernel choice, results are bit-exact run to run: reductions
 *    use fixed-width blocked accumulation (kReduceBlock elements per
 *    partial), and block boundaries depend on the problem size only —
 *    never on the ISA vector width, the thread count, or alignment.
 *    The threads/pipeline/replicas bit-identity matrices therefore
 *    hold under every backend.
 *  - The GEMM is bit-exact across backends: each output element is one
 *    fp32 FMA chain over k in ascending order, starting from 0 (or
 *    from C when accumulating). Tile sizes, row/column splits and the
 *    thread count never change that order, so a row's result does not
 *    depend on how many rows share the call.
 *  - Across kernel choices, element-wise kernels without FMA
 *    opportunities (fill/add/scale/relu/pool) are bit-identical too;
 *    FMA-bearing kernels (axpy/axpby/scatter) and the blocked
 *    reductions agree within a few ULP; the Box-Muller fill agrees
 *    within |diff| < 1e-5 * sigma per sample (polynomial vs libm
 *    transcendentals). The kernel-parity suite (tests/kernels/) pins
 *    these tolerances.
 *  - The scalar backend is the golden reference: the golden-model
 *    regression hashes (tests/kernels/golden_model_test.cc) are
 *    recorded under kernels=scalar.
 */

#ifndef LAZYDP_KERNELS_KERNEL_REGISTRY_H
#define LAZYDP_KERNELS_KERNEL_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace lazydp {

class Philox4x32;

/** Which kernel implementation set to dispatch to. */
enum class KernelBackend
{
    Auto,   //!< resolve to the widest available backend
    Scalar, //!< portable reference implementations (the golden path)
    Avx2,   //!< AVX2+FMA vector implementations
    Avx512  //!< Avx2 with an AVX-512F GEMM tile
};

/**
 * Fixed accumulation block width (elements) shared by every reduction
 * kernel in every backend. A multiple of all supported vector widths so
 * blocked partials land on identical boundaries regardless of ISA.
 */
constexpr std::size_t kReduceBlock = 64;

/**
 * One backend's implementations of the hot primitives. All pointers are
 * non-null in a registered table; slices may be unaligned and
 * zero-length (every kernel must handle n == 0).
 */
struct KernelTable
{
    KernelBackend backend; //!< concrete backend (never Auto)
    const char *name;      //!< "scalar" / "avx2" / "avx512"

    /** dst[i] = v */
    void (*fill)(float *dst, std::size_t n, float v);
    /** y[i] += a * x[i] — clipped-grad accumulation / model update. */
    void (*axpy)(float *y, const float *x, std::size_t n, float a);
    /** y[i] = a * x[i] + b * y[i] — update fused with weight decay. */
    void (*axpby)(float *y, const float *x, std::size_t n, float a,
                  float b);
    /** dst[i] = a[i] + b[i] */
    void (*add)(float *dst, const float *a, const float *b,
                std::size_t n);
    /** dst[i] *= a */
    void (*scale)(float *dst, std::size_t n, float a);
    /** sum_i a[i]*b[i], double accumulation in kReduceBlock blocks. */
    double (*dot)(const float *a, const float *b, std::size_t n);
    /** Fused square-accumulate sum_i x[i]^2 (per-example norms). */
    double (*squaredNorm)(const float *x, std::size_t n);
    /** dst[i] = max(x[i], 0) */
    void (*reluForward)(float *dst, const float *x, std::size_t n);
    /** dx[i] = x[i] > 0 ? dy[i] : 0 */
    void (*reluBackward)(float *dx, const float *x, const float *dy,
                         std::size_t n);

    /**
     * Strided GEMM: C (m x n) = A (m x k) * B (k x n), or C += A * B
     * when @p accumulate, with
     *   A(i, p) = a[i*a_rs + p*a_ks], B(p, j) = b[p*b_ks + j*b_js],
     *   C(i, j) = c[i*ldc + j].
     * Each C(i, j) is one fp32 FMA chain over p = 0, 1, ..., k-1,
     * starting from 0 (or from C), identical in every backend. The
     * vector backends stream B directly when b_js == 1 (C = A*B and
     * C = A^T*B) and transpose it one cache-sized block at a time when
     * b_ks == 1 (C = A*B^T); any other stride runs the scalar loop.
     */
    void (*gemm)(std::size_t m, std::size_t n, std::size_t k,
                 const float *a, std::size_t a_rs, std::size_t a_ks,
                 const float *b, std::size_t b_ks, std::size_t b_js,
                 float *c, std::size_t ldc, bool accumulate);

    /**
     * Embedding sum-pooling: dst[j] = sum_i table[rows[i]*dim + j]
     * (dst overwritten; count may be 0 -> dst zeroed). Rows may repeat.
     */
    void (*poolRows)(float *dst, const float *table,
                     const std::uint32_t *rows, std::size_t count,
                     std::size_t dim);

    /**
     * Sparse scatter-update: table[rows[i]*dim + j] += a * vals[i*dim+j]
     * for every i in [0, count). Rows MUST be unique (callers pass
     * coalesced row lists) so destination rows never alias.
     */
    void (*scatterAxpyRows)(float *table, const std::uint32_t *rows,
                            const float *vals, std::size_t count,
                            std::size_t dim, float a);

    /**
     * Roofline microbenchmark kernel (paper Figure 6): a dependent
     * chain of n_ops alternating mul/add per element.
     * @return flop count (n * n_ops).
     */
    std::size_t (*streamWithOps)(float *dst, const float *x,
                                 std::size_t n, int n_ops);

    /**
     * Keyed Box-Muller Gaussian fill: writes (or accumulates) scale*z
     * for dim samples where sample 4b+j derives from Philox block
     * (ctr_hi, lo_base + b). Counter consumption is identical across
     * backends; see rng/gaussian.h for the full contract.
     */
    void (*gaussianFillKeyed)(const Philox4x32 &philox,
                              std::uint64_t ctr_hi, std::uint64_t lo_base,
                              float *dst, std::size_t dim, float sigma,
                              float scale, bool accumulate);
};

/**
 * Parse a backend name ("scalar", "avx2", "avx512", "auto";
 * case-sensitive).
 * @return true on success (out untouched on failure).
 */
bool parseKernelBackend(const std::string &s, KernelBackend &out);

/** @return canonical name ("auto"/"scalar"/"avx2"/"avx512"). */
const char *kernelBackendName(KernelBackend b);

/** @return true if @p b can execute on this build + CPU. */
bool kernelBackendAvailable(KernelBackend b);

/**
 * Select the process-wide active backend. Auto resolves to Avx512,
 * else Avx2, else Scalar, whichever is first available; an explicit
 * request for an unavailable backend warns and falls back to Scalar
 * (so a forced LAZYDP_KERNELS=avx2 or avx512 CI matrix leg degrades
 * gracefully on old hardware instead of crashing).
 *
 * Call BEFORE constructing engines: elementwise/reduction kernels
 * follow the new table immediately, but a NoiseProvider or
 * GaussianSampler keeps the table it was constructed with —
 * deliberately, so one run's noise stream never switches
 * implementations mid-flight. An engine built under the old backend
 * keeps its old noise kernel.
 */
void setKernelBackend(KernelBackend b);

/** @return the active backend (resolved, never Auto). */
KernelBackend activeKernelBackend();

/**
 * @return the active kernel table. First use resolves the
 * LAZYDP_KERNELS environment variable (or Auto when unset/garbage).
 */
const KernelTable &kernels();

/**
 * @return the table for a concrete backend, or nullptr when it cannot
 * run here. The parity tests iterate backends through this without
 * flipping the process-wide selection.
 */
const KernelTable *kernelTable(KernelBackend b);

} // namespace lazydp

#endif // LAZYDP_KERNELS_KERNEL_REGISTRY_H
