#include "nn/interaction.h"

#include <cstring>
#include <vector>

#include "common/macros.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

DotInteraction::DotInteraction(std::size_t num_inputs, std::size_t dim)
    : numInputs_(num_inputs), dim_(dim)
{
    LAZYDP_ASSERT(num_inputs >= 2, "interaction needs >= 2 inputs");
}

std::size_t
DotInteraction::outputDim() const
{
    return dim_ + numInputs_ * (numInputs_ - 1) / 2;
}

void
DotInteraction::forwardInto(const std::vector<const Tensor *> &inputs,
                            Tensor &out, Tensor &cache,
                            ExecContext &exec) const
{
    LAZYDP_ASSERT(inputs.size() == numInputs_, "interaction input count");
    const std::size_t batch = inputs[0]->rows();
    for (const Tensor *t : inputs) {
        LAZYDP_ASSERT(t->rows() == batch && t->cols() == dim_,
                      "interaction input shape");
    }
    LAZYDP_ASSERT(out.rows() == batch && out.cols() == outputDim(),
                  "interaction output shape");

    if (cache.rows() != batch || cache.cols() != numInputs_ * dim_)
        cache.resize(batch, numInputs_ * dim_);

    const KernelTable &kt = kernels();
    const std::size_t ni = numInputs_;
    const std::size_t d = dim_;
    const std::size_t od = outputDim();
    parallelFor(exec, batch, [&](std::size_t lo, std::size_t hi) {
        std::vector<float> gram(ni * ni);
        for (std::size_t e = lo; e < hi; ++e) {
            float *feats = cache.data() + e * ni * d;
            for (std::size_t i = 0; i < ni; ++i) {
                std::memcpy(feats + i * d, inputs[i]->data() + e * d,
                            d * sizeof(float));
            }
            // Gram matrix Z Z^T of this example's (ni x d) feature rows;
            // its last row holds no pair (i < j), so it is skipped.
            kt.gemm(ni - 1, ni, d, feats, d, 1, feats, 1, d, gram.data(),
                    ni, false);
            float *dst = out.data() + e * od;
            // pass-through of the dense (bottom MLP) vector
            std::memcpy(dst, feats, d * sizeof(float));
            std::size_t k = d;
            for (std::size_t i = 0; i < ni; ++i) {
                for (std::size_t j = i + 1; j < ni; ++j)
                    dst[k++] = gram[i * ni + j];
            }
        }
    });
}

void
DotInteraction::backwardFrom(const Tensor &d_out,
                             const std::vector<Tensor *> &d_inputs,
                             const Tensor &cache, ExecContext &exec) const
{
    LAZYDP_ASSERT(d_inputs.size() == numInputs_, "interaction grad count");
    const std::size_t batch = d_out.rows();
    LAZYDP_ASSERT(d_out.cols() == outputDim(), "interaction grad width");
    LAZYDP_ASSERT(cache.rows() == batch,
                  "interaction backward without forward");

    for (Tensor *t : d_inputs) {
        LAZYDP_ASSERT(t->rows() == batch && t->cols() == dim_,
                      "interaction d_input shape");
    }

    const KernelTable &kt = kernels();
    const std::size_t ni = numInputs_;
    const std::size_t d = dim_;
    const std::size_t od = outputDim();
    parallelFor(exec, batch, [&](std::size_t lo, std::size_t hi) {
        std::vector<float> pair_grad(ni * ni);
        std::vector<float> d_feats(ni * d);
        for (std::size_t e = lo; e < hi; ++e) {
            const float *g = d_out.data() + e * od;
            const float *feats = cache.data() + e * ni * d;
            // Symmetric G with G(i, j) = G(j, i) = dL/d(z_i . z_j) and a
            // zero diagonal, so d z_i = sum_j G(i, j) z_j: dZ = G Z.
            std::size_t k = d;
            for (std::size_t i = 0; i < ni; ++i) {
                pair_grad[i * ni + i] = 0.0f;
                for (std::size_t j = i + 1; j < ni; ++j) {
                    pair_grad[i * ni + j] = g[k];
                    pair_grad[j * ni + i] = g[k++];
                }
            }
            kt.gemm(ni, d, ni, pair_grad.data(), ni, 1, feats, d, 1,
                    d_feats.data(), d, false);
            // plus the pass-through gradient into input 0
            kt.add(d_inputs[0]->data() + e * d, d_feats.data(), g, d);
            for (std::size_t i = 1; i < ni; ++i) {
                std::memcpy(d_inputs[i]->data() + e * d,
                            d_feats.data() + i * d, d * sizeof(float));
            }
        }
    });
}

} // namespace lazydp
