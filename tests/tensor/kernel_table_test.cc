/**
 * @file Unit + property tests for the active kernel table's
 * element-wise primitives.
 *
 * Every kernel is checked against a plain scalar reference over
 * parameterized lengths, including lengths that exercise the vector
 * remainder path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/kernel_registry.h"
#include "rng/xoshiro.h"

namespace lazydp {
namespace {

std::vector<float>
randomVec(std::size_t n, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = 2.0f * rng.nextFloat() - 1.0f;
    return v;
}

class KernelLengthTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(KernelLengthTest, AxpyMatchesScalar)
{
    const std::size_t n = GetParam();
    auto x = randomVec(n, 1);
    auto y = randomVec(n, 2);
    auto y_ref = y;
    kernels().axpy(y.data(), x.data(), n, 0.75f);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(y[i], y_ref[i] + 0.75f * x[i], 1e-6f) << "i=" << i;
}

TEST_P(KernelLengthTest, AxpbyMatchesScalar)
{
    const std::size_t n = GetParam();
    auto x = randomVec(n, 3);
    auto y = randomVec(n, 4);
    auto y_ref = y;
    kernels().axpby(y.data(), x.data(), n, 2.0f, -0.5f);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(y[i], 2.0f * x[i] - 0.5f * y_ref[i], 1e-5f);
}

TEST_P(KernelLengthTest, AddMatchesScalar)
{
    const std::size_t n = GetParam();
    auto a = randomVec(n, 5);
    auto b = randomVec(n, 6);
    std::vector<float> dst(n);
    kernels().add(dst.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(dst[i], a[i] + b[i]);
}

TEST_P(KernelLengthTest, ScaleMatchesScalar)
{
    const std::size_t n = GetParam();
    auto a = randomVec(n, 7);
    auto ref = a;
    kernels().scale(a.data(), n, 3.0f);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(a[i], ref[i] * 3.0f);
}

TEST_P(KernelLengthTest, SquaredNormMatchesScalarReference)
{
    const std::size_t n = GetParam();
    auto a = randomVec(n, 8);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        ref += static_cast<double>(a[i]) * a[i];
    EXPECT_NEAR(kernels().squaredNorm(a.data(), n), ref,
                1e-5 * (1.0 + ref));
}

TEST_P(KernelLengthTest, ReluForwardClampsNegatives)
{
    const std::size_t n = GetParam();
    auto x = randomVec(n, 11);
    std::vector<float> y(n);
    kernels().reluForward(y.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(y[i], x[i] > 0.0f ? x[i] : 0.0f);
}

TEST_P(KernelLengthTest, ReluBackwardMasksByInputSign)
{
    const std::size_t n = GetParam();
    auto x = randomVec(n, 12);
    auto dy = randomVec(n, 13);
    std::vector<float> dx(n);
    kernels().reluBackward(dx.data(), x.data(), dy.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(dx[i], x[i] > 0.0f ? dy[i] : 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Lengths, KernelLengthTest,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 64, 100,
                                           1000, 4096));

TEST(StreamWithOpsTest, ReportsFlopCount)
{
    std::vector<float> x(64, 1.0f);
    std::vector<float> y(64);
    EXPECT_EQ(kernels().streamWithOps(y.data(), x.data(), 64, 10), 640u);
}

TEST(StreamWithOpsTest, ZeroOpsCopies)
{
    auto x = randomVec(100, 14);
    std::vector<float> y(100);
    kernels().streamWithOps(y.data(), x.data(), 100, 0);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(y[i], x[i]);
}

TEST(StreamWithOpsTest, ValuesStayFinite)
{
    // 124 chained ops must not overflow or denormalize (Figure 6 sweep)
    auto x = randomVec(256, 15);
    std::vector<float> y(256);
    kernels().streamWithOps(y.data(), x.data(), 256, 124);
    for (float v : y)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(StreamWithOpsTest, VectorAndScalarTailAgree)
{
    // length 17 exercises both the 8-wide path and the scalar tail
    auto x = randomVec(17, 16);
    std::vector<float> y(17);
    kernels().streamWithOps(y.data(), x.data(), 17, 6);
    // reference: scalar chain
    const float mul_c = 1.000001f;
    const float add_c = 1e-7f;
    for (std::size_t i = 0; i < 17; ++i) {
        float v = x[i];
        for (int k = 0; k < 6; k += 2) {
            v *= mul_c;
            v += add_c;
        }
        EXPECT_NEAR(y[i], v, 1e-6f);
    }
}

} // namespace
} // namespace lazydp
