/**
 * @file Accuracy tests for the AVX2 transcendental kernels against libm.
 *
 * The kernels are reached through avx_math_probe.h, whose TU is built
 * with -mavx2 -mfma in every configuration, so these run in portable
 * builds as well; they skip at runtime on hosts without AVX2+FMA.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "avx_math_probe.h"
#include "kernels/kernel_registry.h"
#include "rng/xoshiro.h"

namespace lazydp {
namespace {

class AvxMathTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (kernelTable(KernelBackend::Avx2) == nullptr ||
            !avx_probe::compiled())
            GTEST_SKIP() << "AVX2+FMA unavailable on this host/build";
    }
};

using AvxLogTest = AvxMathTest;
using AvxSinCosTest = AvxMathTest;

TEST_F(AvxLogTest, MatchesLibmOnUnitInterval)
{
    Xoshiro256 rng(1);
    for (int batch = 0; batch < 2000; ++batch) {
        alignas(32) float in[8];
        alignas(32) float out[8];
        for (auto &v : in)
            v = rng.nextFloat() * 0.9999f + 1e-7f;
        avx_probe::log8(in, out);
        for (int i = 0; i < 8; ++i) {
            const float ref = std::log(in[i]);
            EXPECT_NEAR(out[i], ref,
                        2e-7f * std::max(1.0f, std::abs(ref)) + 2e-7f)
                << "x=" << in[i];
        }
    }
}

TEST_F(AvxLogTest, MatchesLibmOverWideRange)
{
    Xoshiro256 rng(2);
    for (int batch = 0; batch < 2000; ++batch) {
        alignas(32) float in[8];
        alignas(32) float out[8];
        for (auto &v : in)
            v = std::exp((rng.nextFloat() * 2.0f - 1.0f) * 30.0f);
        avx_probe::log8(in, out);
        for (int i = 0; i < 8; ++i) {
            const float ref = std::log(in[i]);
            EXPECT_NEAR(out[i], ref,
                        4e-7f * std::max(1.0f, std::abs(ref)))
                << "x=" << in[i];
        }
    }
}

TEST_F(AvxLogTest, ExactAtOne)
{
    alignas(32) float in[8] = {1.0f, 1.0f, 1.0f, 1.0f,
                               1.0f, 1.0f, 1.0f, 1.0f};
    alignas(32) float out[8];
    avx_probe::log8(in, out);
    for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(out[i], 0.0f, 1e-7f);
}

TEST_F(AvxSinCosTest, MatchesLibmOnUnitInterval)
{
    Xoshiro256 rng(3);
    const float two_pi = 6.28318530717958647692f;
    for (int batch = 0; batch < 4000; ++batch) {
        alignas(32) float in[8];
        alignas(32) float s[8];
        alignas(32) float c[8];
        for (auto &v : in)
            v = rng.nextFloat();
        avx_probe::sinCos2Pi8(in, s, c);
        for (int i = 0; i < 8; ++i) {
            EXPECT_NEAR(s[i], std::sin(two_pi * in[i]), 2e-6f)
                << "u=" << in[i];
            EXPECT_NEAR(c[i], std::cos(two_pi * in[i]), 2e-6f)
                << "u=" << in[i];
        }
    }
}

TEST_F(AvxSinCosTest, QuadrantBoundaries)
{
    alignas(32) float in[8] = {0.0f,   0.25f, 0.5f,  0.75f,
                               0.125f, 0.375f, 0.625f, 0.875f};
    alignas(32) float s[8];
    alignas(32) float c[8];
    avx_probe::sinCos2Pi8(in, s, c);
    EXPECT_NEAR(s[0], 0.0f, 1e-6f);
    EXPECT_NEAR(c[0], 1.0f, 1e-6f);
    EXPECT_NEAR(s[1], 1.0f, 1e-6f);
    EXPECT_NEAR(c[1], 0.0f, 1e-6f);
    EXPECT_NEAR(s[2], 0.0f, 1e-6f);
    EXPECT_NEAR(c[2], -1.0f, 1e-6f);
    EXPECT_NEAR(s[3], -1.0f, 1e-6f);
    EXPECT_NEAR(c[3], 0.0f, 1e-6f);
}

TEST_F(AvxSinCosTest, PythagoreanIdentity)
{
    Xoshiro256 rng(4);
    for (int batch = 0; batch < 1000; ++batch) {
        alignas(32) float in[8];
        alignas(32) float s[8];
        alignas(32) float c[8];
        for (auto &v : in)
            v = rng.nextFloat();
        avx_probe::sinCos2Pi8(in, s, c);
        for (int i = 0; i < 8; ++i)
            EXPECT_NEAR(s[i] * s[i] + c[i] * c[i], 1.0f, 4e-6f);
    }
}

} // namespace
} // namespace lazydp
