#include "tensor/matmul.h"

#include "common/macros.h"
#include "kernels/kernel_registry.h"

// The DLRM GEMMs are embarrassingly parallel across output rows; each
// row's accumulation stays within one thread, so the results are
// bit-identical at any thread count (only the row partition changes).

namespace lazydp {

void
matmulABt(const Tensor &a, const Tensor &b, Tensor &c, bool accumulate,
          ExecContext &exec)
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    LAZYDP_ASSERT(b.cols() == k, "matmulABt inner-dim mismatch");
    LAZYDP_ASSERT(c.rows() == m && c.cols() == n, "matmulABt out shape");

    const KernelTable &kt = kernels();
    parallelFor(exec, m, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            kt.gemvDotRow(a.data() + i * k, b.data(), c.data() + i * n,
                          n, k, accumulate);
        }
    });
}

void
matmulAB(const Tensor &a, const Tensor &b, Tensor &c, bool accumulate,
         ExecContext &exec)
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    LAZYDP_ASSERT(b.rows() == k, "matmulAB inner-dim mismatch");
    LAZYDP_ASSERT(c.rows() == m && c.cols() == n, "matmulAB out shape");

    if (!accumulate)
        c.zero();
    const KernelTable &kt = kernels();
    // i-k-j loop order: the inner loop is an axpy over contiguous rows
    // of B and C, which vectorizes well; rows of C are independent.
    parallelFor(exec, m, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            float *crow = c.data() + i * n;
            const float *arow = a.data() + i * k;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float av = arow[kk];
                if (av == 0.0f)
                    continue;
                kt.axpy(crow, b.data() + kk * n, n, av);
            }
        }
    });
}

void
matmulAtB(const Tensor &a, const Tensor &b, Tensor &c, bool accumulate,
          ExecContext &exec)
{
    const std::size_t k = a.rows();
    const std::size_t m = a.cols();
    const std::size_t n = b.cols();
    LAZYDP_ASSERT(b.rows() == k, "matmulAtB inner-dim mismatch");
    LAZYDP_ASSERT(c.rows() == m && c.cols() == n, "matmulAtB out shape");

    if (!accumulate)
        c.zero();
    const KernelTable &kt = kernels();
    // parallelize over output rows i (each accumulates its own row of
    // C); the column walk over A is strided but race-free
    parallelFor(exec, m, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            float *crow = c.data() + i * n;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float av = a.data()[kk * m + i];
                if (av == 0.0f)
                    continue;
                kt.axpy(crow, b.data() + kk * n, n, av);
            }
        }
    });
}

void
addRowBias(Tensor &x, const Tensor &bias)
{
    LAZYDP_ASSERT(bias.rows() == 1 && bias.cols() == x.cols(),
                  "addRowBias shape mismatch");
    const KernelTable &kt = kernels();
    for (std::size_t r = 0; r < x.rows(); ++r)
        kt.add(x.data() + r * x.cols(), x.data() + r * x.cols(),
               bias.data(), x.cols());
}

void
reduceRows(const Tensor &dy, Tensor &bias_grad)
{
    LAZYDP_ASSERT(bias_grad.rows() == 1 && bias_grad.cols() == dy.cols(),
                  "reduceRows shape mismatch");
    bias_grad.zero();
    const KernelTable &kt = kernels();
    for (std::size_t r = 0; r < dy.rows(); ++r)
        kt.add(bias_grad.data(), bias_grad.data(),
               dy.data() + r * dy.cols(), dy.cols());
}

} // namespace lazydp
