/**
 * @file
 * GEMMs for the DLRM MLP layers.
 *
 * With LazyDP's deferred noise the embedding-table update no longer
 * dominates a DP training iteration; the dense layers are most of what
 * is left, so these run the registry's register-tiled GEMM
 * (KernelTable::gemm). Every output element is one fp32 FMA chain over
 * k in ascending order: results are bit-identical across kernel
 * backends, thread counts and batch sizes (a row computed alone equals
 * the same row in a batch, which serving relies on).
 */

#ifndef LAZYDP_TENSOR_MATMUL_H
#define LAZYDP_TENSOR_MATMUL_H

#include <cstddef>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace lazydp {

/**
 * C = A * B^T.
 *
 * A is (m x k), B is (n x k) — i.e. B is stored row-major with rows of
 * length k, matching a Linear layer whose weight is (out x in) applied
 * to activations (batch x in).
 *
 * @param accumulate when true, adds into C instead of overwriting.
 * @param exec rows of C are partitioned across the context's threads
 */
void matmulABt(const Tensor &a, const Tensor &b, Tensor &c,
               bool accumulate = false,
               ExecContext &exec = ExecContext::serial());

/**
 * C = A * B.
 *
 * A is (m x k), B is (k x n). Used for backward data:
 * dX = dY (batch x out) * W (out x in).
 *
 * @param accumulate when true, adds into C instead of overwriting.
 */
void matmulAB(const Tensor &a, const Tensor &b, Tensor &c,
              bool accumulate = false,
              ExecContext &exec = ExecContext::serial());

/**
 * C = A^T * B.
 *
 * A is (k x m), B is (k x n). Used for weight gradients:
 * dW = dY^T (out x batch) * X (batch x in) expressed as
 * matmulAtB(dY, X, dW).
 *
 * @param accumulate when true, adds into C instead of overwriting.
 */
void matmulAtB(const Tensor &a, const Tensor &b, Tensor &c,
               bool accumulate = false,
               ExecContext &exec = ExecContext::serial());

/** y[r] += bias for every row r of (batch x dim) tensor. */
void addRowBias(Tensor &x, const Tensor &bias,
                ExecContext &exec = ExecContext::serial());

/** bias_grad[c] = sum_r dy(r, c), rows added in order. */
void reduceRows(const Tensor &dy, Tensor &bias_grad,
                ExecContext &exec = ExecContext::serial());

} // namespace lazydp

#endif // LAZYDP_TENSOR_MATMUL_H
