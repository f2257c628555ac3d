/**
 * @file Distribution and determinism tests for the Box-Muller samplers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "rng/gaussian.h"
#include "backend_param.h"

namespace lazydp {
namespace {

class GaussianBackendTest : public KernelBackendTest
{
};

TEST_P(GaussianBackendTest, MomentsMatchStandardNormal)
{
    GaussianSampler s(123, 0, table());
    const std::size_t n = 1u << 20;
    std::vector<float> buf(n);
    s.fill(buf.data(), n, 1.0f);
    RunningStat st;
    st.pushAll(buf.data(), n);
    EXPECT_NEAR(st.mean(), 0.0, 0.01);
    EXPECT_NEAR(st.stddev(), 1.0, 0.01);
    EXPECT_NEAR(st.skewness(), 0.0, 0.02);
    EXPECT_NEAR(st.excessKurtosis(), 0.0, 0.05);
}

TEST_P(GaussianBackendTest, SigmaScalesStddev)
{
    GaussianSampler s(77, 0, table());
    const std::size_t n = 1u << 18;
    std::vector<float> buf(n);
    s.fill(buf.data(), n, 2.5f);
    RunningStat st;
    st.pushAll(buf.data(), n);
    EXPECT_NEAR(st.stddev(), 2.5, 0.05);
}

TEST_P(GaussianBackendTest, HistogramMatchesNormalCdf)
{
    GaussianSampler s(55, 0, table());
    const std::size_t n = 1u << 20;
    std::vector<float> buf(n);
    s.fill(buf.data(), n, 1.0f);

    const std::size_t bins = 40;
    Histogram h(-4.0, 4.0, bins);
    for (float v : buf)
        h.push(v);
    std::vector<double> probs(bins);
    for (std::size_t b = 0; b < bins; ++b) {
        const double lo = -4.0 + 8.0 * b / bins;
        const double hi = -4.0 + 8.0 * (b + 1) / bins;
        probs[b] = normalCdf(hi) - normalCdf(lo);
    }
    // Normalize to in-range mass so chi2 compares shapes.
    double mass = 0.0;
    for (double p : probs)
        mass += p;
    for (auto &p : probs)
        p /= mass;
    Histogram h_in(-4.0, 4.0, bins);
    for (float v : buf)
        if (v >= -4.0f && v < 4.0f)
            h_in.push(v);
    // dof = 39; chi2 above ~90 would be p < 1e-5.
    EXPECT_LT(h_in.chiSquared(probs), 110.0);
}

TEST_P(GaussianBackendTest, DeterministicAcrossInstances)
{
    GaussianSampler a(9, 4, table());
    GaussianSampler b(9, 4, table());
    std::vector<float> va(1000), vb(1000);
    a.fill(va.data(), va.size(), 1.0f);
    b.fill(vb.data(), vb.size(), 1.0f);
    EXPECT_EQ(va, vb);
}

TEST_P(GaussianBackendTest, AccumulateAddsScaledNoise)
{
    GaussianSampler a(31, 0, table());
    GaussianSampler b(31, 0, table());
    std::vector<float> fresh(512);
    a.fill(fresh.data(), fresh.size(), 1.0f);
    std::vector<float> acc(512, 10.0f);
    b.accumulate(acc.data(), acc.size(), 1.0f, 0.5f);
    for (std::size_t i = 0; i < acc.size(); ++i)
        EXPECT_NEAR(acc[i], 10.0f + 0.5f * fresh[i], 1e-5f);
}

TEST_P(GaussianBackendTest, StreamAdvances)
{
    GaussianSampler s(13, 0, table());
    std::vector<float> first(256), second(256);
    s.fill(first.data(), first.size(), 1.0f);
    s.fill(second.data(), second.size(), 1.0f);
    EXPECT_NE(first, second);
}

INSTANTIATE_TEST_SUITE_P(Kernels, GaussianBackendTest, allKernelBackends(),
                         kernelBackendParamName);

TEST(GaussianCrossKernelTest, ScalarAndAvx2AgreeClosely)
{
    const KernelTable *avx2 = kernelTable(KernelBackend::Avx2);
    if (avx2 == nullptr)
        GTEST_SKIP() << "AVX2 unavailable";
    // Same seed/counters -> same uniforms; outputs differ only by
    // polynomial-vs-libm rounding.
    GaussianSampler scalar(5, 0, *kernelTable(KernelBackend::Scalar));
    GaussianSampler avx(5, 0, *avx2);
    std::vector<float> vs(4096), va(4096);
    scalar.fill(vs.data(), vs.size(), 1.0f);
    avx.fill(va.data(), va.size(), 1.0f);
    for (std::size_t i = 0; i < vs.size(); ++i)
        EXPECT_NEAR(vs[i], va[i], 2e-4f) << "i=" << i;
}

TEST(GaussianTest, SamplerKeepsConstructionTable)
{
    // A backend switch after construction must not change the stream.
    const KernelBackend before = activeKernelBackend();
    setKernelBackend(KernelBackend::Scalar);
    GaussianSampler a(6, 1);
    GaussianSampler b(6, 1);
    std::vector<float> want(4096), got(4096);
    a.fill(want.data(), want.size(), 1.0f);
    setKernelBackend(KernelBackend::Avx2);
    b.fill(got.data(), got.size(), 1.0f);
    setKernelBackend(before);
    EXPECT_EQ(got, want);
}

TEST_P(GaussianBackendTest, ParallelFillBitIdenticalToSerial)
{
    // The pool-parallel bulk fill shards the counter range on Philox
    // block boundaries; output and stream advance must equal the
    // serial fill exactly, for every pool width and awkward length.
    for (const std::size_t n : {31u, 4096u, 100003u}) {
        GaussianSampler serial(321, 2, table());
        std::vector<float> want(n, 0.0f);
        serial.fill(want.data(), n, 1.3f);
        std::vector<float> want2(n, 0.0f); // second call: advanced lo
        serial.fill(want2.data(), n, 1.3f);

        for (const std::size_t width : {1u, 2u, 8u}) {
            ThreadPool pool(width);
            ExecContext exec(&pool);
            GaussianSampler par(321, 2, table());
            std::vector<float> got(n, 0.0f);
            par.fill(got.data(), n, 1.3f, exec);
            EXPECT_EQ(got, want) << "n=" << n << " width=" << width;
            par.fill(got.data(), n, 1.3f, exec);
            EXPECT_EQ(got, want2)
                << "stream advance, n=" << n << " width=" << width;
        }
    }
}

TEST(GaussianTest, TailProbabilitiesReasonable)
{
    GaussianSampler s(1717);
    const std::size_t n = 1u << 20;
    std::vector<float> buf(n);
    s.fill(buf.data(), n, 1.0f);
    std::size_t beyond2 = 0;
    std::size_t beyond4 = 0;
    for (float v : buf) {
        beyond2 += std::abs(v) > 2.0f;
        beyond4 += std::abs(v) > 4.0f;
    }
    // P(|Z|>2) = 4.55%, P(|Z|>4) = 6.3e-5
    EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.0455, 0.004);
    EXPECT_LT(static_cast<double>(beyond4) / n, 5e-4);
}

} // namespace
} // namespace lazydp
