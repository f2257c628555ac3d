#include "nn/interaction.h"

#include <cstring>

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
DotInteraction::forward(const std::vector<const Tensor *> &inputs,
                        Tensor &out, ExecContext &exec)
{
    forwardInto(inputs, out, cache_, exec);
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
    for (std::size_t i = 0; i < numInputs_; ++i) {
        for (std::size_t e = 0; e < batch; ++e) {
            std::memcpy(cache.data() + (e * numInputs_ + i) * dim_,
                        inputs[i]->data() + e * dim_,
                        dim_ * sizeof(float));
        }
    }

    const KernelTable &kt = kernels();
    parallelFor(exec, batch, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t e = lo; e < hi; ++e) {
            float *dst = out.data() + e * outputDim();
            const float *feats = cache.data() + e * numInputs_ * dim_;
            // pass-through of the dense (bottom MLP) vector
            std::memcpy(dst, feats, dim_ * sizeof(float));
            std::size_t k = dim_;
            for (std::size_t i = 0; i < numInputs_; ++i) {
                for (std::size_t j = i + 1; j < numInputs_; ++j) {
                    dst[k++] = static_cast<float>(kt.dot(
                        feats + i * dim_, feats + j * dim_, dim_));
                }
            }
        }
    });
}

void
DotInteraction::backward(const Tensor &d_out,
                         const std::vector<Tensor *> &d_inputs,
                         ExecContext &exec) const
{
    backwardFrom(d_out, d_inputs, cache_, exec);
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
        t->zero();
    }

    const KernelTable &kt = kernels();
    parallelFor(exec, batch, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t e = lo; e < hi; ++e) {
            const float *g = d_out.data() + e * outputDim();
            const float *feats = cache.data() + e * numInputs_ * dim_;
            // pass-through gradient into input 0
            kt.add(d_inputs[0]->data() + e * dim_,
                   d_inputs[0]->data() + e * dim_, g, dim_);
            std::size_t k = dim_;
            for (std::size_t i = 0; i < numInputs_; ++i) {
                for (std::size_t j = i + 1; j < numInputs_; ++j) {
                    const float gk = g[k++];
                    if (gk == 0.0f)
                        continue;
                    // d z_i += g * z_j ; d z_j += g * z_i
                    kt.axpy(d_inputs[i]->data() + e * dim_,
                            feats + j * dim_, dim_, gk);
                    kt.axpy(d_inputs[j]->data() + e * dim_,
                            feats + i * dim_, dim_, gk);
                }
            }
        }
    });
}

} // namespace lazydp
