/** @file Tests for the dot-product feature interaction. */

#include <gtest/gtest.h>

#include "kernels/kernel_registry.h"
#include "nn/interaction.h"
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

TEST(InteractionTest, OutputDimFormula)
{
    DotInteraction inter(27, 128);
    EXPECT_EQ(inter.outputDim(), 128u + 27u * 26u / 2u);
}

TEST(InteractionTest, ForwardPassThroughAndPairDots)
{
    DotInteraction inter(3, 2);
    Tensor a(1, 2), b(1, 2), c(1, 2);
    a.at(0, 0) = 1.0f;
    a.at(0, 1) = 2.0f;
    b.at(0, 0) = 3.0f;
    b.at(0, 1) = 4.0f;
    c.at(0, 0) = 5.0f;
    c.at(0, 1) = 6.0f;
    Tensor out(1, inter.outputDim());
    inter.forward({&a, &b, &c}, out);
    // passthrough of a
    EXPECT_EQ(out.at(0, 0), 1.0f);
    EXPECT_EQ(out.at(0, 1), 2.0f);
    // dots: a.b = 11, a.c = 17, b.c = 39
    EXPECT_EQ(out.at(0, 2), 11.0f);
    EXPECT_EQ(out.at(0, 3), 17.0f);
    EXPECT_EQ(out.at(0, 4), 39.0f);
}

TEST(InteractionTest, BackwardNumericalCheck)
{
    const std::size_t n_in = 4;
    const std::size_t dim = 3;
    const std::size_t batch = 2;
    DotInteraction inter(n_in, dim);

    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < n_in; ++i)
        inputs.push_back(randomTensor(batch, dim, 100 + i));
    const Tensor g = randomTensor(batch, inter.outputDim(), 200);

    auto forward_loss = [&]() {
        std::vector<const Tensor *> ptrs;
        for (auto &t : inputs)
            ptrs.push_back(&t);
        Tensor out(batch, inter.outputDim());
        DotInteraction fresh(n_in, dim);
        fresh.forward(ptrs, out);
        return kernels().dot(out.data(), g.data(), out.size());
    };

    // analytic grads
    std::vector<const Tensor *> ptrs;
    for (auto &t : inputs)
        ptrs.push_back(&t);
    Tensor out(batch, inter.outputDim());
    inter.forward(ptrs, out);
    std::vector<Tensor> d_inputs;
    std::vector<Tensor *> d_ptrs;
    for (std::size_t i = 0; i < n_in; ++i) {
        d_inputs.emplace_back(batch, dim);
        d_ptrs.push_back(&d_inputs[i]);
    }
    // build pointer list after vector is fully grown (reallocation!)
    d_ptrs.clear();
    for (auto &t : d_inputs)
        d_ptrs.push_back(&t);
    inter.backward(g, d_ptrs);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < n_in; ++i) {
        for (std::size_t e = 0; e < batch; ++e) {
            for (std::size_t d = 0; d < dim; ++d) {
                const float orig = inputs[i].at(e, d);
                inputs[i].at(e, d) = orig + eps;
                const double lp = forward_loss();
                inputs[i].at(e, d) = orig - eps;
                const double lm = forward_loss();
                inputs[i].at(e, d) = orig;
                const double num = (lp - lm) / (2.0 * eps);
                EXPECT_NEAR(d_inputs[i].at(e, d), num, 6e-2)
                    << "input " << i << " e " << e << " d " << d;
            }
        }
    }
}

TEST(InteractionTest, BackwardZeroGradGivesZero)
{
    DotInteraction inter(2, 2);
    Tensor a = randomTensor(3, 2, 1);
    Tensor b = randomTensor(3, 2, 2);
    Tensor out(3, inter.outputDim());
    inter.forward({&a, &b}, out);
    Tensor g(3, inter.outputDim()); // zeros
    Tensor da(3, 2), db(3, 2);
    inter.backward(g, {&da, &db});
    for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da.data()[i], 0.0f);
        EXPECT_EQ(db.data()[i], 0.0f);
    }
}

} // namespace
} // namespace lazydp
