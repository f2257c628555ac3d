/**
 * @file Statistical smoke tests for the Gaussian machinery.
 *
 * The privacy guarantee rests entirely on the noise actually being
 * N(0, sigma^2): a silently skewed or mis-scaled sampler weakens DP
 * without failing any bit-identity test. These fixed-seed checks make
 * RNG regressions fail loudly: sample moments (mean / variance /
 * skewness) within tolerance and a coarse Kolmogorov-Smirnov bound
 * against the normal CDF, for both the bulk sampler (gaussian.cc) and
 * the keyed per-row streams (noise_provider.cc).
 *
 * Everything is deterministic (fixed seeds), so the tolerances only
 * need to clear the correct implementation -- flaky-free by design.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "backend_param.h"
#include "rng/gaussian.h"
#include "rng/noise_provider.h"

namespace lazydp {
namespace {

struct Moments
{
    double mean = 0.0;
    double var = 0.0;
    double skew = 0.0;
};

Moments
sampleMoments(const std::vector<float> &x)
{
    const double n = static_cast<double>(x.size());
    Moments m;
    for (const float v : x)
        m.mean += v;
    m.mean /= n;
    double m2 = 0.0, m3 = 0.0;
    for (const float v : x) {
        const double d = v - m.mean;
        m2 += d * d;
        m3 += d * d * d;
    }
    m2 /= n;
    m3 /= n;
    m.var = m2;
    m.skew = m3 / std::pow(m2, 1.5);
    return m;
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

/** Kolmogorov-Smirnov D against N(0, sigma^2). */
double
ksStatistic(std::vector<float> x, double sigma)
{
    std::sort(x.begin(), x.end());
    const double n = static_cast<double>(x.size());
    double d = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double cdf = normalCdf(x[i] / sigma);
        const double hi = (static_cast<double>(i) + 1.0) / n - cdf;
        const double lo = cdf - static_cast<double>(i) / n;
        d = std::max(d, std::max(hi, lo));
    }
    return d;
}

void
expectGaussianShape(const std::vector<float> &x, double sigma,
                    const char *what)
{
    const double n = static_cast<double>(x.size());
    const Moments m = sampleMoments(x);
    // mean of n samples ~ N(0, sigma^2/n): allow ~4.5 standard errors
    EXPECT_NEAR(m.mean, 0.0, 4.5 * sigma / std::sqrt(n)) << what;
    // var estimator stddev ~ sigma^2 * sqrt(2/n)
    EXPECT_NEAR(m.var, sigma * sigma,
                5.0 * sigma * sigma * std::sqrt(2.0 / n))
        << what;
    // skewness estimator stddev ~ sqrt(6/n)
    EXPECT_NEAR(m.skew, 0.0, 5.0 * std::sqrt(6.0 / n)) << what;
    // coarse KS bound: D_crit(alpha=0.001) ~ 1.95/sqrt(n); use 2.2
    EXPECT_LT(ksStatistic(x, sigma), 2.2 / std::sqrt(n)) << what;
}

class GaussianStatisticalTest : public KernelBackendTest
{
};

class NoiseProviderStatisticalTest : public KernelBackendTest
{
};

TEST_P(GaussianStatisticalTest, BulkSamplerMomentsAndKs)
{
    GaussianSampler sampler(0x5EED, /*stream=*/3, table());
    std::vector<float> x(1 << 15);
    sampler.fill(x.data(), x.size(), /*sigma=*/1.0f);
    expectGaussianShape(x, 1.0, "bulk sigma=1");
}

TEST_P(GaussianStatisticalTest, BulkSamplerNonUnitSigma)
{
    GaussianSampler sampler(0xABCDE, 0, table());
    std::vector<float> x(1 << 15);
    sampler.fill(x.data(), x.size(), /*sigma=*/2.5f);
    expectGaussianShape(x, 2.5, "bulk sigma=2.5");
}

TEST_P(NoiseProviderStatisticalTest, KeyedRowStreamMomentsAndKs)
{
    // Concatenate many (iteration, table, row) keyed streams: each must
    // be N(0, sigma^2) and independent across keys, so the pooled
    // sample is Gaussian too.
    const NoiseProvider noise(0xD9, table());
    const std::size_t dim = 64;
    const std::size_t rows = 512;
    std::vector<float> x(rows * dim);
    for (std::size_t r = 0; r < rows; ++r) {
        noise.rowNoise(/*iter=*/7, /*table=*/1, r, /*sigma=*/1.0f,
                       /*scale=*/1.0f, x.data() + r * dim, dim,
                       /*accumulate=*/false);
    }
    expectGaussianShape(x, 1.0, "keyed row streams");
}

TEST_P(NoiseProviderStatisticalTest, DistinctKeysAreUncorrelated)
{
    // Pearson correlation across keyed draws of adjacent rows and
    // adjacent iterations must vanish: draw order never leaks between
    // keys (the property the lazy/eager equivalence rests on).
    const NoiseProvider noise(0xD9, table());
    const std::size_t dim = 4096;
    std::vector<float> a(dim), b(dim), c(dim);
    noise.rowNoise(3, 0, 10, 1.0f, 1.0f, a.data(), dim, false);
    noise.rowNoise(3, 0, 11, 1.0f, 1.0f, b.data(), dim, false);
    noise.rowNoise(4, 0, 10, 1.0f, 1.0f, c.data(), dim, false);

    auto corr = [&](const std::vector<float> &u,
                    const std::vector<float> &v) {
        double su = 0, sv = 0, suv = 0, suu = 0, svv = 0;
        const double n = static_cast<double>(dim);
        for (std::size_t i = 0; i < dim; ++i) {
            su += u[i];
            sv += v[i];
            suv += static_cast<double>(u[i]) * v[i];
            suu += static_cast<double>(u[i]) * u[i];
            svv += static_cast<double>(v[i]) * v[i];
        }
        const double cov = suv / n - (su / n) * (sv / n);
        const double var_u = suu / n - (su / n) * (su / n);
        const double var_v = svv / n - (sv / n) * (sv / n);
        return cov / std::sqrt(var_u * var_v);
    };
    // corr estimator stddev ~ 1/sqrt(n) = 0.0156; allow ~4.5x
    EXPECT_NEAR(corr(a, b), 0.0, 0.07) << "adjacent rows";
    EXPECT_NEAR(corr(a, c), 0.0, 0.07) << "adjacent iterations";
}

TEST_P(NoiseProviderStatisticalTest, AggregatedDrawMatchesSumVariance)
{
    // ANS: one draw of N(0, k sigma^2) -- its pooled sample variance
    // over many keys must track k * sigma^2 (Theorem 5.1), the property
    // that keeps the deferred noise distributionally exact.
    const NoiseProvider noise(0xD9, table());
    const std::size_t dim = 64;
    const std::size_t rows = 512;
    const std::uint64_t k = 9;
    std::vector<float> x(rows * dim, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
        noise.aggregatedRowNoise(/*iter_from=*/2, /*iter_to=*/2 + k - 1,
                                 /*table=*/0, r, /*sigma=*/1.0f,
                                 /*scale=*/1.0f, x.data() + r * dim, dim);
    }
    expectGaussianShape(x, std::sqrt(static_cast<double>(k)),
                        "aggregated k=9");
}

INSTANTIATE_TEST_SUITE_P(Kernels, GaussianStatisticalTest,
                         allKernelBackends(), kernelBackendParamName);
INSTANTIATE_TEST_SUITE_P(Kernels, NoiseProviderStatisticalTest,
                         allKernelBackends(), kernelBackendParamName);

} // namespace
} // namespace lazydp
