/**
 * @file
 * Box-Muller Gaussian sampling on top of Philox counters.
 *
 * This is the kernel the paper identifies as the compute-bound half of
 * DP-SGD's model-update bottleneck: each pair of output samples costs a
 * logarithm, a square root and a sin/cos evaluation (~101 vector ops per
 * 8-wide vector in the AVX2 path).
 *
 * The fill itself is KernelTable::gaussianFillKeyed: it writes (or
 * accumulates) `scale * z` for `dim` samples, where z ~ N(0, sigma^2)
 * and sample 4b+j is derived from Philox block (ctr_hi, lo_base + b).
 *
 * Determinism contract: for a fixed (seed, counter, kernel table) the
 * output is bit-stable. The scalar and AVX2 tables consume identical
 * counter blocks and differ only by libm-vs-polynomial rounding
 * (|diff| < 1e-5 per sample), so distributions are identical across
 * backends.
 */

#ifndef LAZYDP_RNG_GAUSSIAN_H
#define LAZYDP_RNG_GAUSSIAN_H

#include <cstddef>
#include <cstdint>

#include "common/thread_pool.h"
#include "kernels/kernel_registry.h"
#include "rng/philox.h"

namespace lazydp {

namespace gaussian_detail {

/**
 * Pool-parallel @p kt.gaussianFillKeyed for bulk fills: the counter
 * range is sharded on 4-sample Philox-block boundaries with a fixed
 * grain, so the output is bit-identical to one serial call at any
 * thread count (every sample is derived from its keyed counter, not
 * draw order).
 */
void fillKeyedParallel(const KernelTable &kt, const Philox4x32 &philox,
                       std::uint64_t ctr_hi, std::uint64_t lo_base,
                       float *dst, std::size_t dim, float sigma,
                       float scale, bool accumulate, ExecContext &exec);

} // namespace gaussian_detail

/**
 * Sequential bulk Gaussian stream.
 *
 * Used by the eager DP-SGD baselines to fill table-sized dense noise
 * tensors; consumes consecutive Philox counters.
 */
class GaussianSampler
{
  public:
    /**
     * @param seed Philox key
     * @param stream independent-stream selector (lands in ctr_hi)
     * @param kt kernel table whose Box-Muller fill every draw uses,
     *           fixed for the sampler's lifetime
     */
    explicit GaussianSampler(std::uint64_t seed, std::uint64_t stream = 0,
                             const KernelTable &kt = kernels());

    /** dst[i] = z_i with z ~ N(0, sigma^2), advancing the stream. */
    void fill(float *dst, std::size_t n, float sigma);

    /**
     * Parallel bulk fill: same output and stream advance as fill() --
     * counters are keyed by block index, so sharding the range across
     * @p exec changes nothing but wall time.
     */
    void fill(float *dst, std::size_t n, float sigma, ExecContext &exec);

    /** dst[i] += scale * z_i with z ~ N(0, sigma^2). */
    void accumulate(float *dst, std::size_t n, float sigma, float scale);

  private:
    Philox4x32 philox_;
    std::uint64_t hi_;
    std::uint64_t lo_;
    const KernelTable *kt_;
};

} // namespace lazydp

#endif // LAZYDP_RNG_GAUSSIAN_H
