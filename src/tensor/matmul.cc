#include "tensor/matmul.h"

#include "common/macros.h"
#include "kernels/kernel_registry.h"

// Every GEMM here is one KernelTable::gemm call per row chunk of C.
// Each C element is one fp32 FMA chain over k in ascending order
// inside the kernel, so the row partition (and so the thread count)
// never changes a result, and neither does the number of rows: a row
// computed alone equals the same row computed in a batch.

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
        // B(p, j) = b[j*k + p]: the kernel's transposed-B layout.
        kt.gemm(hi - lo, n, k, a.data() + lo * k, k, 1, b.data(), 1, k,
                c.data() + lo * n, n, accumulate);
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

    const KernelTable &kt = kernels();
    parallelFor(exec, m, [&](std::size_t lo, std::size_t hi) {
        kt.gemm(hi - lo, n, k, a.data() + lo * k, k, 1, b.data(), n, 1,
                c.data() + lo * n, n, accumulate);
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

    const KernelTable &kt = kernels();
    parallelFor(exec, m, [&](std::size_t lo, std::size_t hi) {
        // A^T(i, p) = a[p*m + i]: the tile broadcasts it one element at
        // a time, so the transpose costs no copy.
        kt.gemm(hi - lo, n, k, a.data() + lo, 1, m, b.data(), n, 1,
                c.data() + lo * n, n, accumulate);
    });
}

void
addRowBias(Tensor &x, const Tensor &bias, ExecContext &exec)
{
    LAZYDP_ASSERT(bias.rows() == 1 && bias.cols() == x.cols(),
                  "addRowBias shape mismatch");
    const KernelTable &kt = kernels();
    const std::size_t cols = x.cols();
    parallelFor(exec, x.rows(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r)
            kt.add(x.data() + r * cols, x.data() + r * cols, bias.data(),
                   cols);
    });
}

void
reduceRows(const Tensor &dy, Tensor &bias_grad, ExecContext &exec)
{
    LAZYDP_ASSERT(bias_grad.rows() == 1 && bias_grad.cols() == dy.cols(),
                  "reduceRows shape mismatch");
    const KernelTable &kt = kernels();
    const std::size_t cols = dy.cols();
    // Split the columns: each column still sums its rows in order.
    parallelFor(exec, cols, [&](std::size_t lo, std::size_t hi) {
        float *dst = bias_grad.data() + lo;
        kt.fill(dst, hi - lo, 0.0f);
        for (std::size_t r = 0; r < dy.rows(); ++r)
            kt.add(dst, dst, dy.data() + r * cols + lo, hi - lo);
    });
}

} // namespace lazydp
