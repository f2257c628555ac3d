#include "tensor/tensor.h"

#include "common/macros.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), buf_(rows * cols)
{
}

void
Tensor::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    buf_.allocate(rows * cols);
}

void
Tensor::resizeNoShrink(std::size_t rows, std::size_t cols)
{
    if (buf_.size() >= rows * cols) {
        rows_ = rows;
        cols_ = cols;
        return;
    }
    resize(rows, cols);
}

void
Tensor::copyFrom(const Tensor &other)
{
    LAZYDP_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
                  "copyFrom shape mismatch");
    std::memcpy(buf_.data(), other.buf_.data(), size() * sizeof(float));
}

void
Tensor::fill(float v)
{
    kernels().fill(buf_.data(), size(), v);
}

double
Tensor::squaredNorm() const
{
    return kernels().squaredNorm(buf_.data(), size());
}

} // namespace lazydp
