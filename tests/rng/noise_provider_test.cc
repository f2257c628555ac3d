/**
 * @file Tests for the keyed noise provider -- the determinism and
 * aggregation properties everything else builds on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "backend_param.h"
#include "common/stats.h"
#include "rng/noise_provider.h"

namespace lazydp {
namespace {

constexpr std::size_t kDim = 128;

class NoiseProviderTest : public KernelBackendTest
{
};

TEST_P(NoiseProviderTest, SameKeySameNoiseRegardlessOfQueryTime)
{
    NoiseProvider np(0xAB, table());
    std::vector<float> a(kDim, 0.0f);
    std::vector<float> b(kDim, 0.0f);
    np.rowNoise(7, 3, 12345, 1.0f, 1.0f, a.data(), kDim);
    // interleave unrelated draws, then re-query the same key
    std::vector<float> junk(kDim);
    np.rowNoise(8, 1, 1, 1.0f, 1.0f, junk.data(), kDim, false);
    np.rowNoise(7, 3, 12345, 1.0f, 1.0f, b.data(), kDim);
    EXPECT_EQ(a, b);
}

TEST_P(NoiseProviderTest, DistinctKeysGiveDistinctNoise)
{
    NoiseProvider np(0xAB, table());
    std::vector<float> base(kDim, 0.0f);
    np.rowNoise(1, 0, 0, 1.0f, 1.0f, base.data(), kDim, false);

    const struct
    {
        std::uint64_t iter;
        std::uint32_t table;
        std::uint64_t row;
    } variants[] = {{2, 0, 0}, {1, 1, 0}, {1, 0, 1}};
    for (const auto &v : variants) {
        std::vector<float> out(kDim, 0.0f);
        np.rowNoise(v.iter, v.table, v.row, 1.0f, 1.0f, out.data(), kDim,
                    false);
        EXPECT_NE(base, out);
    }
}

TEST_P(NoiseProviderTest, DifferentSeedsAreIndependent)
{
    NoiseProvider a(1, table());
    NoiseProvider b(2, table());
    std::vector<float> va(kDim, 0.0f), vb(kDim, 0.0f);
    a.rowNoise(1, 0, 0, 1.0f, 1.0f, va.data(), kDim, false);
    b.rowNoise(1, 0, 0, 1.0f, 1.0f, vb.data(), kDim, false);
    EXPECT_NE(va, vb);
}

TEST_P(NoiseProviderTest, AccumulateEqualsSumOfIndividualDraws)
{
    NoiseProvider np(7, table());
    std::vector<float> acc(kDim, 0.0f);
    np.accumulateRowNoise(3, 6, 2, 99, 1.5f, 1.0f, acc.data(), kDim);

    std::vector<float> ref(kDim, 0.0f);
    for (std::uint64_t it = 3; it <= 6; ++it)
        np.rowNoise(it, 2, 99, 1.5f, 1.0f, ref.data(), kDim);
    for (std::size_t i = 0; i < kDim; ++i)
        EXPECT_NEAR(acc[i], ref[i], 1e-6f);
}

TEST_P(NoiseProviderTest, ScaleIsApplied)
{
    NoiseProvider np(7, table());
    std::vector<float> unit(kDim, 0.0f), scaled(kDim, 0.0f);
    np.rowNoise(1, 0, 5, 1.0f, 1.0f, unit.data(), kDim, false);
    np.rowNoise(1, 0, 5, 1.0f, -0.25f, scaled.data(), kDim, false);
    for (std::size_t i = 0; i < kDim; ++i)
        EXPECT_NEAR(scaled[i], -0.25f * unit[i], 1e-6f);
}

TEST_P(NoiseProviderTest, AggregatedUsesIndependentRandomness)
{
    // ANS draws must not collide with any per-iteration stream.
    NoiseProvider np(7, table());
    std::vector<float> agg(kDim, 0.0f);
    np.aggregatedRowNoise(5, 5, 0, 10, 1.0f, 1.0f, agg.data(), kDim);
    std::vector<float> per(kDim, 0.0f);
    np.rowNoise(5, 0, 10, 1.0f, 1.0f, per.data(), kDim, false);
    EXPECT_NE(agg, per);
}

TEST_P(NoiseProviderTest, AggregatedVarianceMatchesSum)
{
    // Var of ANS draw over k delayed iterations must be k * sigma^2.
    NoiseProvider np(11, table());
    const std::uint64_t k = 9;
    const float sigma = 0.8f;
    RunningStat st;
    std::vector<float> buf(kDim);
    for (std::uint64_t row = 0; row < 4096; ++row) {
        std::fill(buf.begin(), buf.end(), 0.0f);
        np.aggregatedRowNoise(1, k, 0, row, sigma, 1.0f, buf.data(),
                              kDim);
        st.pushAll(buf.data(), kDim);
    }
    EXPECT_NEAR(st.mean(), 0.0, 0.01);
    EXPECT_NEAR(st.variance(), k * sigma * sigma, 0.05);
}

TEST_P(NoiseProviderTest, IterativeVarianceMatchesSum)
{
    // The non-ANS path must ALSO have variance k * sigma^2 -- the two
    // paths are distributionally interchangeable (Theorem 5.1).
    NoiseProvider np(13, table());
    const std::uint64_t k = 9;
    const float sigma = 0.8f;
    RunningStat st;
    std::vector<float> buf(kDim);
    for (std::uint64_t row = 0; row < 4096; ++row) {
        std::fill(buf.begin(), buf.end(), 0.0f);
        np.accumulateRowNoise(1, k, 0, row, sigma, 1.0f, buf.data(),
                              kDim);
        st.pushAll(buf.data(), kDim);
    }
    EXPECT_NEAR(st.variance(), k * sigma * sigma, 0.05);
}

TEST(NoiseProviderCrossKernelTest, KernelsProduceSameStream)
{
    const KernelTable *avx2 = kernelTable(KernelBackend::Avx2);
    if (avx2 == nullptr)
        GTEST_SKIP() << "AVX2 unavailable";
    NoiseProvider scalar(21, *kernelTable(KernelBackend::Scalar));
    NoiseProvider avx(21, *avx2);
    std::vector<float> vs(kDim, 0.0f), va(kDim, 0.0f);
    scalar.rowNoise(4, 2, 77, 1.0f, 1.0f, vs.data(), kDim, false);
    avx.rowNoise(4, 2, 77, 1.0f, 1.0f, va.data(), kDim, false);
    for (std::size_t i = 0; i < kDim; ++i)
        EXPECT_NEAR(vs[i], va[i], 2e-4f);
}

TEST_P(NoiseProviderTest, NonMultipleOfFourDims)
{
    NoiseProvider np(3, table());
    for (std::size_t dim : {1u, 2u, 3u, 5u, 127u}) {
        std::vector<float> buf(dim + 1, 42.0f);
        np.rowNoise(1, 0, 0, 1.0f, 1.0f, buf.data(), dim, false);
        // guard element untouched
        EXPECT_EQ(buf[dim], 42.0f) << "dim=" << dim;
    }
}

TEST(NoiseProviderCrossKernelTest, ProviderKeepsConstructionTable)
{
    // The engines build their provider once; a backend switch after
    // that must not change which Box-Muller fill the run draws from.
    const KernelBackend before = activeKernelBackend();
    setKernelBackend(KernelBackend::Scalar);
    const NoiseProvider np(21);
    std::vector<float> want(kDim, 0.0f), got(kDim, 0.0f);
    np.rowNoise(4, 2, 77, 1.0f, 1.0f, want.data(), kDim, false);
    setKernelBackend(KernelBackend::Avx2);
    np.rowNoise(4, 2, 77, 1.0f, 1.0f, got.data(), kDim, false);
    setKernelBackend(before);
    EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Kernels, NoiseProviderTest, allKernelBackends(),
                         kernelBackendParamName);

class DelayRangeTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DelayRangeTest, AggregatedStddevScalesWithSqrtDelay)
{
    const std::uint64_t k = GetParam();
    NoiseProvider np(0xF00);
    RunningStat st;
    std::vector<float> buf(kDim);
    for (std::uint64_t row = 0; row < 2048; ++row) {
        std::fill(buf.begin(), buf.end(), 0.0f);
        np.aggregatedRowNoise(10, 10 + k - 1, 1, row, 1.0f, 1.0f,
                              buf.data(), kDim);
        st.pushAll(buf.data(), kDim);
    }
    EXPECT_NEAR(st.stddev(), std::sqrt(static_cast<double>(k)),
                0.02 * std::sqrt(static_cast<double>(k)));
}

INSTANTIATE_TEST_SUITE_P(Delays, DelayRangeTest,
                         ::testing::Values(1, 2, 4, 16, 64, 256, 1024));

} // namespace
} // namespace lazydp
