#include "rng/noise_provider.h"

#include <cmath>

#include "common/macros.h"

namespace lazydp {

NoiseProvider::NoiseProvider(std::uint64_t seed, const KernelTable &kt)
    : philox_(seed), kt_(&kt)
{
}

void
NoiseProvider::composeCounter(std::uint32_t domain, std::uint64_t iter,
                              std::uint32_t table, std::uint64_t row,
                              std::uint64_t &ctr_hi, std::uint64_t &lo_base)
{
    // ctr_hi: [2-bit domain][54-bit iteration][8-bit table]
    // ctr_lo: [52-bit row][12-bit block index] (blocks cover 4 samples,
    //         so dim <= 4 * 2^12 = kMaxDim)
    LAZYDP_ASSERT(iter < (1ull << 54), "iteration id overflows counter");
    LAZYDP_ASSERT(table < kMaxTables, "table id overflows counter");
    LAZYDP_ASSERT(row < (1ull << 52), "row id overflows counter");
    ctr_hi = (static_cast<std::uint64_t>(domain) << 62) | (iter << 8) |
             static_cast<std::uint64_t>(table);
    lo_base = row << 12;
}

void
NoiseProvider::rowNoise(std::uint64_t iter, std::uint32_t table,
                        std::uint64_t row, float sigma, float scale,
                        float *dst, std::size_t dim, bool accumulate) const
{
    LAZYDP_ASSERT(dim <= kMaxDim, "embedding dim exceeds counter layout");
    std::uint64_t hi, lo;
    composeCounter(/*domain=*/0, iter, table, row, hi, lo);
    kt_->gaussianFillKeyed(philox_, hi, lo, dst, dim, sigma, scale,
                           accumulate);
}

void
NoiseProvider::rowNoiseParallel(std::uint64_t iter, std::uint32_t table,
                                std::uint64_t row, float sigma,
                                float scale, float *dst, std::size_t dim,
                                bool accumulate, ExecContext &exec) const
{
    LAZYDP_ASSERT(dim <= kMaxDim, "embedding dim exceeds counter layout");
    std::uint64_t hi, lo;
    composeCounter(/*domain=*/0, iter, table, row, hi, lo);
    gaussian_detail::fillKeyedParallel(*kt_, philox_, hi, lo, dst, dim,
                                       sigma, scale, accumulate, exec);
}

void
NoiseProvider::rowNoiseBatch(std::uint64_t iter, std::uint32_t table,
                             std::span<const std::uint32_t> rows,
                             float sigma, float scale, float *dst,
                             std::size_t dim, bool accumulate,
                             ExecContext &exec) const
{
    parallelFor(exec, rows.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            rowNoise(iter, table, rows[i], sigma, scale, dst + i * dim,
                     dim, accumulate);
        }
    });
}

void
NoiseProvider::accumulateRowNoise(std::uint64_t iter_from,
                                  std::uint64_t iter_to, std::uint32_t table,
                                  std::uint64_t row, float sigma, float scale,
                                  float *dst, std::size_t dim) const
{
    LAZYDP_ASSERT(iter_from <= iter_to, "empty iteration range");
    for (std::uint64_t it = iter_from; it <= iter_to; ++it)
        rowNoise(it, table, row, sigma, scale, dst, dim, true);
}

void
NoiseProvider::aggregatedRowNoise(std::uint64_t iter_from,
                                  std::uint64_t iter_to, std::uint32_t table,
                                  std::uint64_t row, float sigma, float scale,
                                  float *dst, std::size_t dim) const
{
    LAZYDP_ASSERT(iter_from <= iter_to, "empty iteration range");
    LAZYDP_ASSERT(dim <= kMaxDim, "embedding dim exceeds counter layout");
    const auto k = static_cast<float>(iter_to - iter_from + 1);
    // Theorem 5.1: sum of k iid N(0, sigma^2) == N(0, k * sigma^2).
    const float agg_sigma = sigma * std::sqrt(k);
    std::uint64_t hi, lo;
    composeCounter(/*domain=*/1, iter_to, table, row, hi, lo);
    kt_->gaussianFillKeyed(philox_, hi, lo, dst, dim, agg_sigma, scale,
                           true);
}

void
NoiseProvider::geometricRowNoise(std::uint64_t iter_from,
                                 std::uint64_t iter_to,
                                 std::uint32_t table, std::uint64_t row,
                                 float alpha, float sigma, float scale,
                                 float *dst, std::size_t dim) const
{
    LAZYDP_ASSERT(iter_from <= iter_to, "empty iteration range");
    LAZYDP_ASSERT(alpha > 0.0f && alpha <= 1.0f,
                  "decay factor must be in (0, 1]");
    float weight = 1.0f; // alpha^(iter_to - j), newest draw first
    for (std::uint64_t it = iter_to;; --it) {
        rowNoise(it, table, row, sigma, scale * weight, dst, dim, true);
        if (it == iter_from)
            break;
        weight *= alpha;
    }
}

void
NoiseProvider::aggregatedGeometricRowNoise(
    std::uint64_t iter_from, std::uint64_t iter_to, std::uint32_t table,
    std::uint64_t row, float alpha, float sigma, float scale, float *dst,
    std::size_t dim) const
{
    LAZYDP_ASSERT(iter_from <= iter_to, "empty iteration range");
    LAZYDP_ASSERT(alpha > 0.0f && alpha <= 1.0f,
                  "decay factor must be in (0, 1]");
    const auto k = static_cast<double>(iter_to - iter_from + 1);
    // variance factor: sum_{m=0}^{k-1} alpha^(2m)
    const double a2 = static_cast<double>(alpha) * alpha;
    const double var_factor =
        a2 >= 1.0 ? k : (1.0 - std::pow(a2, k)) / (1.0 - a2);
    const float agg_sigma =
        sigma * static_cast<float>(std::sqrt(var_factor));
    std::uint64_t hi, lo;
    composeCounter(/*domain=*/1, iter_to, table, row, hi, lo);
    kt_->gaussianFillKeyed(philox_, hi, lo, dst, dim, agg_sigma, scale,
                           true);
}

} // namespace lazydp
