/**
 * @file MLP tests: numerical gradient checks, ghost-norm exactness, and
 * per-example gradient consistency.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/kernel_registry.h"
#include "nn/mlp.h"
#include "rng/xoshiro.h"

namespace lazydp {
namespace {

Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Tensor t(r, c);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = 2.0f * rng.nextFloat() - 1.0f;
    return t;
}

/** loss = <y, G> for fixed G; returns d_y = G. */
double
proxyLoss(const Tensor &y, const Tensor &g)
{
    return kernels().dot(y.data(), g.data(), y.size());
}

TEST(LinearLayerTest, ForwardMatchesNaive)
{
    LinearLayer layer(3, 2);
    layer.initUniform(1);
    const Tensor x = randomTensor(4, 3, 2);
    Tensor y(4, 2);
    layer.forward(x, y);
    for (std::size_t e = 0; e < 4; ++e) {
        for (std::size_t o = 0; o < 2; ++o) {
            double ref = layer.bias().at(0, o);
            for (std::size_t i = 0; i < 3; ++i)
                ref += static_cast<double>(x.at(e, i)) *
                       layer.weight().at(o, i);
            EXPECT_NEAR(y.at(e, o), ref, 1e-5);
        }
    }
}

TEST(LinearLayerTest, WeightGradNumericalCheck)
{
    LinearLayer layer(3, 2);
    layer.initUniform(3);
    const Tensor x = randomTensor(5, 3, 4);
    const Tensor g = randomTensor(5, 2, 5);
    Tensor y(5, 2);
    layer.forward(x, y);
    Tensor dx(5, 3);
    layer.backward(g, &dx);

    const float eps = 1e-3f;
    for (std::size_t o = 0; o < 2; ++o) {
        for (std::size_t i = 0; i < 3; ++i) {
            float &w = layer.weight().at(o, i);
            const float orig = w;
            w = orig + eps;
            Tensor yp(5, 2);
            layer.forward(x, yp);
            w = orig - eps;
            Tensor ym(5, 2);
            layer.forward(x, ym);
            w = orig;
            const double num =
                (proxyLoss(yp, g) - proxyLoss(ym, g)) / (2.0 * eps);
            EXPECT_NEAR(layer.weightGrad().at(o, i), num, 5e-2);
        }
    }
}

TEST(LinearLayerTest, InputGradNumericalCheck)
{
    LinearLayer layer(3, 2);
    layer.initUniform(6);
    Tensor x = randomTensor(2, 3, 7);
    const Tensor g = randomTensor(2, 2, 8);
    Tensor y(2, 2);
    layer.forward(x, y);
    Tensor dx(2, 3);
    layer.backward(g, &dx);

    const float eps = 1e-3f;
    for (std::size_t e = 0; e < 2; ++e) {
        for (std::size_t i = 0; i < 3; ++i) {
            const float orig = x.at(e, i);
            x.at(e, i) = orig + eps;
            Tensor yp(2, 2);
            layer.forward(x, yp);
            x.at(e, i) = orig - eps;
            Tensor ym(2, 2);
            layer.forward(x, ym);
            x.at(e, i) = orig;
            const double num =
                (proxyLoss(yp, g) - proxyLoss(ym, g)) / (2.0 * eps);
            EXPECT_NEAR(dx.at(e, i), num, 5e-2);
        }
    }
}

TEST(LinearLayerTest, GhostNormEqualsMaterializedNorm)
{
    // ghost-norm formula must match the norm of actual per-example
    // grads exactly (the DP-SGD(F) correctness cornerstone)
    LinearLayer layer(7, 5);
    layer.initUniform(9);
    const Tensor x = randomTensor(6, 7, 10);
    const Tensor g = randomTensor(6, 5, 11);
    Tensor y(6, 5);
    layer.forward(x, y);

    std::vector<double> ghost(6, 0.0);
    layer.accumulateGhostNormSq(g, ghost);

    Tensor wg, bg;
    layer.perExampleGrads(g, wg, bg);
    for (std::size_t e = 0; e < 6; ++e) {
        const double ref =
            kernels().squaredNorm(wg.data() + e * wg.cols(), wg.cols()) +
            kernels().squaredNorm(bg.data() + e * bg.cols(), bg.cols());
        EXPECT_NEAR(ghost[e], ref, 1e-6 * (1.0 + ref));
    }
}

TEST(LinearLayerTest, PerExampleGradsSumToBatchGrad)
{
    LinearLayer layer(4, 3);
    layer.initUniform(12);
    const Tensor x = randomTensor(8, 4, 13);
    const Tensor g = randomTensor(8, 3, 14);
    Tensor y(8, 3);
    layer.forward(x, y);
    layer.backward(g, nullptr);

    Tensor wg, bg;
    layer.perExampleGrads(g, wg, bg);
    for (std::size_t o = 0; o < 3; ++o) {
        for (std::size_t i = 0; i < 4; ++i) {
            double sum = 0.0;
            for (std::size_t e = 0; e < 8; ++e)
                sum += wg.at(e, o * 4 + i);
            EXPECT_NEAR(layer.weightGrad().at(o, i), sum, 1e-4);
        }
    }
}

TEST(LinearLayerTest, SkipParamGradsLeavesGradsUntouched)
{
    LinearLayer layer(3, 3);
    layer.initUniform(15);
    const Tensor x = randomTensor(2, 3, 16);
    const Tensor g = randomTensor(2, 3, 17);
    Tensor y(2, 3);
    layer.forward(x, y);
    layer.weightGrad().fill(123.0f);
    Tensor dx(2, 3);
    layer.backward(g, &dx, /*skip_param_grads=*/true);
    EXPECT_EQ(layer.weightGrad().at(0, 0), 123.0f);
}

TEST(LinearLayerTest, ApplyStepsAgainstGradient)
{
    LinearLayer layer(2, 2);
    layer.weight().fill(1.0f);
    layer.weightGrad().fill(2.0f);
    layer.bias().fill(0.5f);
    layer.biasGrad().fill(1.0f);
    layer.apply(0.25f);
    EXPECT_EQ(layer.weight().at(0, 0), 0.5f);
    EXPECT_EQ(layer.bias().at(0, 1), 0.25f);
}

TEST(MlpTest, ForwardBackwardNumericalCheckThroughRelu)
{
    Mlp mlp({3, 5, 2}, 21);
    Tensor x = randomTensor(4, 3, 22);
    const Tensor g = randomTensor(4, 2, 23);
    Tensor y(4, 2);
    mlp.forward(x, y);
    Tensor dx(4, 3);
    mlp.backward(g, &dx);

    const float eps = 1e-3f;
    for (std::size_t e = 0; e < 4; ++e) {
        for (std::size_t i = 0; i < 3; ++i) {
            const float orig = x.at(e, i);
            x.at(e, i) = orig + eps;
            Tensor yp(4, 2);
            mlp.forward(x, yp);
            x.at(e, i) = orig - eps;
            Tensor ym(4, 2);
            mlp.forward(x, ym);
            x.at(e, i) = orig;
            const double num =
                (proxyLoss(yp, g) - proxyLoss(ym, g)) / (2.0 * eps);
            EXPECT_NEAR(dx.at(e, i), num, 6e-2);
        }
    }
}

TEST(MlpTest, WeightGradNumericalCheckDeepStack)
{
    Mlp mlp({2, 4, 4, 1}, 31);
    const Tensor x = randomTensor(3, 2, 32);
    const Tensor g = randomTensor(3, 1, 33);
    Tensor y(3, 1);
    mlp.forward(x, y);
    mlp.backward(g, nullptr);

    const float eps = 1e-3f;
    for (std::size_t li = 0; li < mlp.layers().size(); ++li) {
        LinearLayer &layer = mlp.layers()[li];
        // spot-check a few weights per layer
        for (std::size_t k = 0; k < std::min<std::size_t>(
                                        4, layer.weight().size());
             ++k) {
            float &w = layer.weight().data()[k];
            const float orig = w;
            w = orig + eps;
            Tensor yp(3, 1);
            mlp.forward(x, yp);
            w = orig - eps;
            Tensor ym(3, 1);
            mlp.forward(x, ym);
            w = orig;
            const double num =
                (proxyLoss(yp, g) - proxyLoss(ym, g)) / (2.0 * eps);
            EXPECT_NEAR(layer.weightGrad().data()[k], num, 6e-2)
                << "layer " << li << " weight " << k;
        }
        // re-run backward because the perturbed forwards invalidated
        // the caches
        Tensor y2(3, 1);
        mlp.forward(x, y2);
        mlp.backward(g, nullptr);
    }
}

TEST(MlpTest, GhostNormMatchesPerExampleThroughStack)
{
    Mlp a({3, 6, 2}, 41);
    Mlp b({3, 6, 2}, 41); // identical weights
    const Tensor x = randomTensor(5, 3, 42);
    const Tensor g = randomTensor(5, 2, 43);

    Tensor ya(5, 2), yb(5, 2);
    a.forward(x, ya);
    b.forward(x, yb);

    std::vector<double> ghost(5, 0.0);
    a.backward(g, nullptr, &ghost, /*skip_param_grads=*/true);

    PerExampleGrads peg;
    b.backwardPerExample(g, nullptr, peg);
    for (std::size_t e = 0; e < 5; ++e) {
        double ref = 0.0;
        for (const auto &w : peg.w)
            ref += kernels().squaredNorm(w.data() + e * w.cols(),
                                         w.cols());
        for (const auto &bias : peg.b)
            ref += kernels().squaredNorm(bias.data() + e * bias.cols(),
                                         bias.cols());
        EXPECT_NEAR(ghost[e], ref, 1e-5 * (1.0 + ref)) << "e=" << e;
    }
}

TEST(MlpTest, BackwardNormsOnlyMatchesGhostNorms)
{
    Mlp a({4, 8, 3}, 51);
    Mlp b({4, 8, 3}, 51);
    const Tensor x = randomTensor(6, 4, 52);
    const Tensor g = randomTensor(6, 3, 53);
    Tensor ya(6, 3), yb(6, 3);
    a.forward(x, ya);
    b.forward(x, yb);

    std::vector<double> ghost(6, 0.0);
    a.backward(g, nullptr, &ghost, true);
    std::vector<double> materialized(6, 0.0);
    b.backwardNormsOnly(g, nullptr, materialized);
    for (std::size_t e = 0; e < 6; ++e)
        EXPECT_NEAR(ghost[e], materialized[e],
                    1e-5 * (1.0 + ghost[e]));
}

TEST(MlpTest, ParamCountMatchesShape)
{
    Mlp mlp({3, 5, 2}, 61);
    EXPECT_EQ(mlp.paramCount(), 3u * 5 + 5 + 5 * 2 + 2);
}

TEST(PerExampleGradsTest, BytesAccounting)
{
    Mlp mlp({2, 3, 1}, 71);
    const Tensor x = randomTensor(4, 2, 72);
    const Tensor g = randomTensor(4, 1, 73);
    Tensor y(4, 1);
    mlp.forward(x, y);
    PerExampleGrads peg;
    mlp.backwardPerExample(g, nullptr, peg);
    // layer0: 4 x (3*2) floats, layer1: 4 x (1*3); biases 4x3 + 4x1
    EXPECT_EQ(peg.bytes(), (4 * 6 + 4 * 3 + 4 * 3 + 4 * 1) * 4u);
}

} // namespace
} // namespace lazydp
