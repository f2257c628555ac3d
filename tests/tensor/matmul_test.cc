/** @file Unit tests for the GEMM kernels against naive references. */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "kernels/kernel_registry.h"
#include "rng/xoshiro.h"
#include "tensor/matmul.h"

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

struct Shape
{
    std::size_t m, k, n;
};

class MatmulShapeTest : public ::testing::TestWithParam<Shape>
{
};

TEST_P(MatmulShapeTest, ABtMatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(m, k, 1);
    const Tensor b = randomTensor(n, k, 2);
    Tensor c(m, n);
    matmulABt(a, b, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                ref += static_cast<double>(a.at(i, kk)) * b.at(j, kk);
            EXPECT_NEAR(c.at(i, j), ref, 1e-4) << i << "," << j;
        }
    }
}

TEST_P(MatmulShapeTest, ABMatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(m, k, 3);
    const Tensor b = randomTensor(k, n, 4);
    Tensor c(m, n);
    matmulAB(a, b, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                ref += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
    }
}

TEST_P(MatmulShapeTest, AtBMatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(k, m, 5);
    const Tensor b = randomTensor(k, n, 6);
    Tensor c(m, n);
    matmulAtB(a, b, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                ref += static_cast<double>(a.at(kk, i)) * b.at(kk, j);
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapeTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4}, Shape{8, 8, 8},
                      Shape{5, 17, 3}, Shape{16, 33, 9},
                      Shape{31, 64, 31}));

TEST(MatmulTest, AccumulateAddsIntoOutput)
{
    const Tensor a = randomTensor(2, 3, 7);
    const Tensor b = randomTensor(4, 3, 8);
    Tensor c(2, 4);
    c.fill(1.0f);
    Tensor c2(2, 4);
    matmulABt(a, b, c2);
    matmulABt(a, b, c, /*accumulate=*/true);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c.data()[i], c2.data()[i] + 1.0f, 1e-5);
}

TEST(MatmulTest, AddRowBiasBroadcasts)
{
    Tensor x(3, 2);
    x.fill(1.0f);
    Tensor bias(1, 2);
    bias.data()[0] = 0.5f;
    bias.data()[1] = -0.5f;
    addRowBias(x, bias);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(x.at(r, 0), 1.5f);
        EXPECT_EQ(x.at(r, 1), 0.5f);
    }
}

TEST(MatmulTest, ReduceRowsSumsColumns)
{
    Tensor dy(3, 2);
    for (std::size_t r = 0; r < 3; ++r) {
        dy.at(r, 0) = static_cast<float>(r + 1);
        dy.at(r, 1) = 10.0f;
    }
    Tensor bias_grad(1, 2);
    reduceRows(dy, bias_grad);
    EXPECT_EQ(bias_grad.at(0, 0), 6.0f);
    EXPECT_EQ(bias_grad.at(0, 1), 30.0f);
}

// ---------------------------------------------------------------------
// Order invariance: each C element is one FMA chain over k in
// ascending order, so a row's bits do not depend on how many rows
// share the call, how they are split, the thread count or the backend.

enum class Op
{
    ABt,
    AB,
    AtB
};

const char *
opName(Op op)
{
    return op == Op::ABt ? "ABt" : op == Op::AB ? "AB" : "AtB";
}

/** The A and B of C (m x n) = op(A, B) with inner dimension k. */
struct Operands
{
    Tensor a;
    Tensor b;
};

Operands
makeOperands(Op op, std::size_t m, std::size_t n, std::size_t k,
             std::uint64_t seed)
{
    switch (op) {
      case Op::ABt:
        return {randomTensor(m, k, seed), randomTensor(n, k, seed + 1)};
      case Op::AB:
        return {randomTensor(m, k, seed), randomTensor(k, n, seed + 1)};
      case Op::AtB:
      default:
        return {randomTensor(k, m, seed), randomTensor(k, n, seed + 1)};
    }
}

/** The part of A that produces rows [lo, hi) of C. */
Tensor
rowsOfA(Op op, const Tensor &a, std::size_t lo, std::size_t hi)
{
    if (op != Op::AtB) {
        Tensor out(hi - lo, a.cols());
        std::memcpy(out.data(), a.data() + lo * a.cols(),
                    out.size() * sizeof(float));
        return out;
    }
    Tensor out(a.rows(), hi - lo); // A^T's rows are A's columns
    for (std::size_t p = 0; p < a.rows(); ++p)
        for (std::size_t i = lo; i < hi; ++i)
            out.at(p, i - lo) = a.at(p, i);
    return out;
}

void
runOp(Op op, const Tensor &a, const Tensor &b, Tensor &c, bool acc,
      ExecContext &exec)
{
    switch (op) {
      case Op::ABt:
        matmulABt(a, b, c, acc, exec);
        break;
      case Op::AB:
        matmulAB(a, b, c, acc, exec);
        break;
      case Op::AtB:
        matmulAtB(a, b, c, acc, exec);
        break;
    }
}

/** @return a copy of @p t (Tensor itself is move-only). */
Tensor
copyOf(const Tensor &t)
{
    Tensor out(t.rows(), t.cols());
    out.copyFrom(t);
    return out;
}

/** Rows [lo, hi) of @p t as their own tensor. */
Tensor
rowSlice(const Tensor &t, std::size_t lo, std::size_t hi)
{
    Tensor out(hi - lo, t.cols());
    std::memcpy(out.data(), t.data() + lo * t.cols(),
                out.size() * sizeof(float));
    return out;
}

bool
sameBits(const float *x, const float *y, std::size_t n)
{
    return std::memcmp(x, y, n * sizeof(float)) == 0;
}

struct InvarianceShape
{
    std::size_t m, n, k;
};

/**
 * Shapes hitting every tile remainder: each of M, N and K takes every
 * value in {1..33, 127, 128, 479} once, paired with rotating partners.
 */
std::vector<InvarianceShape>
invarianceShapes()
{
    std::vector<std::size_t> dims;
    for (std::size_t v = 1; v <= 33; ++v)
        dims.push_back(v);
    for (std::size_t v : {127, 128, 479})
        dims.push_back(v);
    const std::size_t nd = dims.size();
    std::vector<InvarianceShape> out;
    for (std::size_t i = 0; i < nd; ++i) {
        const std::size_t p = dims[(i * 7 + 5) % 33];
        const std::size_t q = dims[(i * 13 + 11) % 33];
        out.push_back({dims[i], p, q});
        out.push_back({p, dims[i], q});
        out.push_back({q, p, dims[i]});
    }
    out.push_back({64, 256, 479}); // top-MLP layer 1 at a lot slice
    out.push_back({4, 128, 479});  // serving micro-batch
    return out;
}

class MatmulInvarianceTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        for (const std::size_t t : {2, 4})
            pools_.push_back(std::make_unique<ThreadPool>(t));
    }
    static void TearDownTestSuite() { pools_.clear(); }

    static std::vector<std::unique_ptr<ThreadPool>> pools_;
};

std::vector<std::unique_ptr<ThreadPool>> MatmulInvarianceTest::pools_;

TEST_F(MatmulInvarianceTest, RowsIgnoreBatchSplitAndThreads)
{
    std::mt19937 rng(0x5EED);
    std::uint64_t seed = 100;
    for (const InvarianceShape &s : invarianceShapes()) {
        for (const Op op : {Op::ABt, Op::AB, Op::AtB}) {
            const Operands ops = makeOperands(op, s.m, s.n, s.k, seed);
            const Tensor c0 = randomTensor(s.m, s.n, seed + 2);
            seed += 3;
            for (const bool acc : {false, true}) {
                Tensor full = copyOf(c0);
                runOp(op, ops.a, ops.b, full, acc, ExecContext::serial());
                const auto where = [&] {
                    return ::testing::Message()
                           << opName(op) << " m=" << s.m << " n=" << s.n
                           << " k=" << s.k << " acc=" << acc;
                };

                for (const auto &pool : pools_) {
                    ExecContext exec(pool.get());
                    Tensor c = copyOf(c0);
                    runOp(op, ops.a, ops.b, c, acc, exec);
                    ASSERT_TRUE(sameBits(full.data(), c.data(), c.size()))
                        << where() << " threads=" << pool->threads();
                }

                // Random row splits, the single-row split included.
                for (int trial = 0; trial < 3; ++trial) {
                    const std::size_t max_piece = trial == 0 ? 1 : s.m;
                    std::uniform_int_distribution<std::size_t> piece(
                        1, max_piece);
                    for (std::size_t lo = 0; lo < s.m;) {
                        const std::size_t hi =
                            std::min(s.m, lo + piece(rng));
                        const Tensor a_part = rowsOfA(op, ops.a, lo, hi);
                        Tensor c_part = rowSlice(c0, lo, hi);
                        runOp(op, a_part, ops.b, c_part, acc,
                              ExecContext::serial());
                        ASSERT_TRUE(sameBits(full.data() + lo * s.n,
                                             c_part.data(), c_part.size()))
                            << where() << " rows [" << lo << ", " << hi
                            << ")";
                        lo = hi;
                    }
                }
            }
        }
    }
}

TEST_F(MatmulInvarianceTest, BitEqualAcrossBackends)
{
    const KernelBackend before = activeKernelBackend();
    std::uint64_t seed = 900;
    for (const InvarianceShape &s : invarianceShapes()) {
        for (const Op op : {Op::ABt, Op::AB, Op::AtB}) {
            const Operands ops = makeOperands(op, s.m, s.n, s.k, seed);
            const Tensor c0 = randomTensor(s.m, s.n, seed + 2);
            seed += 3;
            for (const bool acc : {false, true}) {
                setKernelBackend(KernelBackend::Scalar);
                Tensor want = copyOf(c0);
                runOp(op, ops.a, ops.b, want, acc, ExecContext::serial());
                for (const KernelBackend b :
                     {KernelBackend::Avx2, KernelBackend::Avx512}) {
                    if (!kernelBackendAvailable(b))
                        continue;
                    setKernelBackend(b);
                    ExecContext exec(pools_.back().get());
                    Tensor got = copyOf(c0);
                    runOp(op, ops.a, ops.b, got, acc, exec);
                    ASSERT_TRUE(
                        sameBits(want.data(), got.data(), got.size()))
                        << kernelBackendName(b) << " " << opName(op)
                        << " m=" << s.m << " n=" << s.n << " k=" << s.k
                        << " acc=" << acc;
                }
            }
        }
    }
    setKernelBackend(before);
}

TEST(MatmulTest, BiasAndReduceIgnoreThreads)
{
    ThreadPool pool(4);
    ExecContext exec(&pool);
    const Tensor dy = randomTensor(37, 131, 11);
    const Tensor bias = randomTensor(1, 131, 12);
    Tensor bg1(1, 131), bg4(1, 131);
    reduceRows(dy, bg1);
    reduceRows(dy, bg4, exec);
    EXPECT_TRUE(sameBits(bg1.data(), bg4.data(), bg1.size()));
    Tensor x1 = copyOf(dy), x4 = copyOf(dy);
    addRowBias(x1, bias);
    addRowBias(x4, bias, exec);
    EXPECT_TRUE(sameBits(x1.data(), x4.data(), x1.size()));
}

} // namespace
} // namespace lazydp
