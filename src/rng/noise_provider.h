/**
 * @file
 * Keyed per-(iteration, table, row) Gaussian noise streams.
 *
 * Every DP algorithm in this repository draws its embedding-table noise
 * through this provider, which keys Philox counters by logical identity
 * rather than draw order. Consequences:
 *
 *  - Eager DP-SGD(B/R/F) and LazyDP-without-ANS consume *the same* noise
 *    values for the same (iteration, table, row), no matter when or in
 *    what order they apply them. The LazyDP == DP-SGD equivalence of
 *    Section 5.2.1 therefore holds exactly (up to FP summation order)
 *    and is asserted by the integration tests.
 *
 *  - Aggregated noise sampling (ANS, Section 5.2.2) draws from a
 *    domain-separated counter range so a single N(0, k*sigma^2) draw
 *    never reuses randomness from the per-iteration streams.
 *
 *  - The provider is stateless after construction (counter-keyed
 *    Philox, no internal cursor), so every method is safe to call
 *    concurrently from any thread. The pipelined Trainer exploits
 *    this: prepare(i+1) samples next-iteration noise on the async lane
 *    while apply(i) draws MLP noise on the pool, and both read the
 *    same provider.
 */

#ifndef LAZYDP_RNG_NOISE_PROVIDER_H
#define LAZYDP_RNG_NOISE_PROVIDER_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/thread_pool.h"
#include "rng/gaussian.h"
#include "rng/philox.h"

namespace lazydp {

/** Keyed Gaussian noise source for embedding-table DP updates. */
class NoiseProvider
{
  public:
    /** Maximum embedding dimension supported by the counter layout. */
    static constexpr std::size_t kMaxDim = 1u << 14;

    /** Maximum number of embedding tables. */
    static constexpr std::uint32_t kMaxTables = 1u << 8;

    /**
     * @param seed global privacy-noise seed
     * @param kt kernel table whose Box-Muller fill every draw uses,
     *           fixed for the provider's lifetime so one run's noise
     *           stream never switches implementations mid-run
     */
    explicit NoiseProvider(std::uint64_t seed,
                           const KernelTable &kt = kernels());

    /**
     * dst[j] op= scale * z_j where z ~ N(0, sigma^2) keyed by
     * (@p iter, @p table, @p row).
     *
     * @param accumulate when true, accumulates into dst; else overwrites
     */
    void rowNoise(std::uint64_t iter, std::uint32_t table,
                  std::uint64_t row, float sigma, float scale, float *dst,
                  std::size_t dim, bool accumulate = true) const;

    /**
     * Pool-parallel rowNoise: identical output (bit-for-bit; the fill
     * is sharded on Philox block boundaries), wall time divided by
     * @p exec. Worth it for dims large enough to amortize dispatch --
     * the single-pseudo-row MLP tensors of addDenseParamNoise.
     */
    void rowNoiseParallel(std::uint64_t iter, std::uint32_t table,
                          std::uint64_t row, float sigma, float scale,
                          float *dst, std::size_t dim, bool accumulate,
                          ExecContext &exec) const;

    /**
     * Batched keyed fill: for each i, dst + i*dim receives the
     * (@p iter, @p table, rows[i]) stream -- exactly the values
     * rowNoise would produce row by row, but sharded across @p exec.
     * Rows must be unique when the destination rows alias per-row
     * output (they are after coalescing), since shards write
     * concurrently.
     */
    void rowNoiseBatch(std::uint64_t iter, std::uint32_t table,
                       std::span<const std::uint32_t> rows, float sigma,
                       float scale, float *dst, std::size_t dim,
                       bool accumulate = true,
                       ExecContext &exec = ExecContext::serial()) const;

    /**
     * Accumulate the per-iteration noises of iterations
     * [@p iter_from, @p iter_to] one by one (the LazyDP *without ANS*
     * path: k separate Box-Muller samplings).
     */
    void accumulateRowNoise(std::uint64_t iter_from, std::uint64_t iter_to,
                            std::uint32_t table, std::uint64_t row,
                            float sigma, float scale, float *dst,
                            std::size_t dim) const;

    /**
     * Accumulate a single aggregated draw z ~ N(0, k*sigma^2) with
     * k = iter_to - iter_from + 1 (the ANS path, Theorem 5.1). Keyed by
     * (@p iter_to, table, row) in a separate counter domain.
     */
    void aggregatedRowNoise(std::uint64_t iter_from, std::uint64_t iter_to,
                            std::uint32_t table, std::uint64_t row,
                            float sigma, float scale, float *dst,
                            std::size_t dim) const;

    /**
     * Geometrically weighted noise sum for deferred *weight decay*
     * (LazyDP extension; not in the paper): accumulates
     *   sum_{j=iter_from}^{iter_to} alpha^(iter_to - j) * z_j
     * with z_j the per-iteration keyed draws -- exactly the noise an
     * eager engine with multiplicative decay alpha per step would have
     * woven into the weights.
     */
    void geometricRowNoise(std::uint64_t iter_from, std::uint64_t iter_to,
                           std::uint32_t table, std::uint64_t row,
                           float alpha, float sigma, float scale,
                           float *dst, std::size_t dim) const;

    /**
     * Single-draw equivalent of geometricRowNoise (ANS + decay):
     * z ~ N(0, sigma^2 * sum_{m=0}^{k-1} alpha^(2m)). Domain-separated
     * like aggregatedRowNoise.
     */
    void aggregatedGeometricRowNoise(std::uint64_t iter_from,
                                     std::uint64_t iter_to,
                                     std::uint32_t table,
                                     std::uint64_t row, float alpha,
                                     float sigma, float scale, float *dst,
                                     std::size_t dim) const;

    /** @return the seed the provider was constructed with. */
    std::uint64_t seed() const { return philox_.seed(); }

  private:
    /** Compose the 128-bit counter prefix for a keyed row draw. */
    static void composeCounter(std::uint32_t domain, std::uint64_t iter,
                               std::uint32_t table, std::uint64_t row,
                               std::uint64_t &ctr_hi, std::uint64_t &lo_base);

    Philox4x32 philox_;
    const KernelTable *kt_;
};

} // namespace lazydp

#endif // LAZYDP_RNG_NOISE_PROVIDER_H
