#include "rng/gaussian.h"

#include <algorithm>

namespace lazydp {

namespace gaussian_detail {

void
fillKeyedParallel(const KernelTable &kt, const Philox4x32 &philox,
                  std::uint64_t ctr_hi, std::uint64_t lo_base, float *dst,
                  std::size_t dim, float sigma, float scale,
                  bool accumulate, ExecContext &exec)
{
    // Shard on Philox-block boundaries (4 samples each) so every shard
    // consumes exactly the counters the serial path would have used for
    // its output range. Grain: 2048 blocks = 8192 samples per shard.
    const std::size_t blocks = (dim + 3) / 4;
    parallelForShards(
        exec, blocks, 2048,
        [&](std::size_t, std::size_t blo, std::size_t bhi) {
            const std::size_t sample_lo = 4 * blo;
            const std::size_t sample_hi = std::min(dim, 4 * bhi);
            kt.gaussianFillKeyed(philox, ctr_hi, lo_base + blo,
                                 dst + sample_lo, sample_hi - sample_lo,
                                 sigma, scale, accumulate);
        });
}

} // namespace gaussian_detail

GaussianSampler::GaussianSampler(std::uint64_t seed, std::uint64_t stream,
                                 const KernelTable &kt)
    : philox_(seed), hi_(stream), lo_(0), kt_(&kt)
{
}

void
GaussianSampler::fill(float *dst, std::size_t n, float sigma)
{
    kt_->gaussianFillKeyed(philox_, hi_, lo_, dst, n, sigma, 1.0f, false);
    lo_ += (n + 3) / 4;
}

void
GaussianSampler::fill(float *dst, std::size_t n, float sigma,
                      ExecContext &exec)
{
    gaussian_detail::fillKeyedParallel(*kt_, philox_, hi_, lo_, dst, n,
                                       sigma, 1.0f, false, exec);
    lo_ += (n + 3) / 4;
}

void
GaussianSampler::accumulate(float *dst, std::size_t n, float sigma,
                            float scale)
{
    kt_->gaussianFillKeyed(philox_, hi_, lo_, dst, n, sigma, scale, true);
    lo_ += (n + 3) / 4;
}

} // namespace lazydp
