#include "nn/embedding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "kernels/kernel_registry.h"
#include "rng/xoshiro.h"

namespace lazydp {

EmbeddingTable::EmbeddingTable(std::uint64_t rows, std::size_t dim)
    : rows_(rows), dim_(dim), weights_(rows, dim)
{
    LAZYDP_ASSERT(rows > 0 && dim > 0, "degenerate embedding table");
}

EmbeddingTable::EmbeddingTable(std::uint64_t rows, std::size_t dim,
                               Paged)
    : rows_(rows), dim_(dim), paged_(true)
{
    LAZYDP_ASSERT(rows > 0 && dim > 0, "degenerate embedding table");
}

EmbeddingTable::EmbeddingTable(std::uint64_t rows, std::size_t dim,
                               const TieredOptions &tier_options)
    : rows_(rows), dim_(dim),
      tiered_(std::make_unique<TieredStore>(rows, dim, tier_options))
{
    LAZYDP_ASSERT(rows > 0 && dim > 0, "degenerate embedding table");
}

void
EmbeddingTable::bindPages(
    std::size_t page_rows,
    std::vector<std::shared_ptr<const TablePage>> pages)
{
    LAZYDP_ASSERT(paged_, "bindPages on a dense table");
    LAZYDP_ASSERT(page_rows > 0, "page size must be positive");
    LAZYDP_ASSERT(pages.size() ==
                      (rows_ + page_rows - 1) / page_rows,
                  "page count does not cover the table");
    for (const auto &p : pages)
        LAZYDP_ASSERT(p != nullptr && p->floats() >= page_rows * dim_,
                      "undersized table page");
    pageRows_ = page_rows;
    pages_ = std::move(pages);
}

void
EmbeddingTable::unbindPages()
{
    LAZYDP_ASSERT(paged_, "unbindPages on a dense table");
    pages_.clear();
}

void
EmbeddingTable::initUniform(std::uint64_t seed)
{
    LAZYDP_ASSERT(!paged_, "initUniform on a paged table");
    Xoshiro256 rng(seed);
    const float scale = 1.0f / std::sqrt(static_cast<float>(dim_));
    if (tiered_ != nullptr) {
        // Same linear RNG sequence as the dense fill, materialized one
        // page segment at a time (write-through: the cold file becomes
        // the initialized table without consuming hot frames).
        const std::size_t page_rows = tiered_->pageRows();
        std::uint64_t r = 0;
        while (r < rows_) {
            const std::size_t p =
                static_cast<std::size_t>(r / page_rows);
            const std::uint64_t take =
                std::min<std::uint64_t>(rows_ - r, page_rows);
            float *w = tiered_->pagePtrMut(p);
            const std::size_t n = static_cast<std::size_t>(take) * dim_;
            for (std::size_t i = 0; i < n; ++i)
                w[i] = (2.0f * rng.nextFloat() - 1.0f) * scale;
            r += take;
        }
        return;
    }
    float *w = weights_.data();
    const std::size_t n = weights_.size();
    for (std::size_t i = 0; i < n; ++i)
        w[i] = (2.0f * rng.nextFloat() - 1.0f) * scale;
}

void
EmbeddingTable::forward(std::span<const std::uint32_t> indices,
                        std::size_t batch, std::size_t pooling,
                        Tensor &out) const
{
    LAZYDP_ASSERT(indices.size() == batch * pooling,
                  "index count != batch * pooling");
    LAZYDP_ASSERT(out.rows() == batch && out.cols() == dim_,
                  "embedding output shape mismatch");
    for (const std::uint32_t row : indices)
        LAZYDP_ASSERT(row < rows_, "embedding row out of range");
    const KernelTable &kt = kernels();
    if (tiered_ != nullptr) {
        // Tiered gather: same fill + per-slot add scheme as the paged
        // branch below (rows are not contiguous across pages, so the
        // base-pointer poolRows kernel cannot be used). Both poolRows
        // backends do exactly fill + elementwise adds in slot order,
        // so this scores BIT-identically to the dense path -- the same
        // equivalence the delta-snapshot parity contract rests on.
        // Reads never promote: a cold lookup streams from the mapping.
        for (std::size_t e = 0; e < batch; ++e) {
            float *dst = out.data() + e * dim_;
            kt.fill(dst, dim_, 0.0f);
            for (std::size_t s = 0; s < pooling; ++s)
                kt.add(dst, dst, rowPtr(indices[e * pooling + s]),
                       dim_);
        }
        return;
    }
    if (paged_) {
        // Paged gather: zero the destination, then add each gathered
        // row in slot order. Both poolRows backends do exactly this
        // (fill + per-slot elementwise add), so a paged snapshot scores
        // BIT-identically to the dense table it was copied from -- the
        // delta-vs-full parity contract rests on this.
        LAZYDP_ASSERT(!pages_.empty(), "forward on an unbound paged table");
        for (std::size_t e = 0; e < batch; ++e) {
            float *dst = out.data() + e * dim_;
            kt.fill(dst, dim_, 0.0f);
            for (std::size_t s = 0; s < pooling; ++s)
                kt.add(dst, dst, rowPtr(indices[e * pooling + s]),
                       dim_);
        }
        return;
    }
    for (std::size_t e = 0; e < batch; ++e) {
        kt.poolRows(out.data() + e * dim_, weights_.data(),
                    indices.data() + e * pooling, pooling, dim_);
    }
}

void
EmbeddingTable::backward(std::span<const std::uint32_t> indices,
                         std::size_t batch, std::size_t pooling,
                         const Tensor &d_out, SparseGrad &grad) const
{
    LAZYDP_ASSERT(indices.size() == batch * pooling,
                  "index count != batch * pooling");
    LAZYDP_ASSERT(d_out.rows() == batch && d_out.cols() == dim_,
                  "embedding output-grad shape mismatch");

    uniqueRows(indices, grad.rows);
    grad.values.resize(grad.rows.size(), dim_);

    // Sum-pooling distributes the pooled gradient unchanged to each
    // gathered row; duplicates within an example accumulate twice, as
    // autograd would.
    const KernelTable &kt = kernels();
    for (std::size_t e = 0; e < batch; ++e) {
        const float *src = d_out.data() + e * dim_;
        for (std::size_t s = 0; s < pooling; ++s) {
            const std::uint32_t row = indices[e * pooling + s];
            const auto it = std::lower_bound(grad.rows.begin(),
                                             grad.rows.end(), row);
            const auto slot =
                static_cast<std::size_t>(it - grad.rows.begin());
            kt.axpy(grad.values.data() + slot * dim_, src, dim_, 1.0f);
        }
    }
}

void
EmbeddingTable::applySparse(const SparseGrad &grad, float lr)
{
    LAZYDP_ASSERT(grad.values.rows() == grad.rows.size() &&
                      grad.values.cols() == dim_,
                  "sparse gradient shape mismatch");
    for (const std::uint32_t row : grad.rows)
        LAZYDP_ASSERT(row < rows_, "sparse grad row out of range");
    if (tiered_ != nullptr) {
        // Promote the touched pages, then update row by row. Both
        // scatterAxpyRows backends are exactly a per-row axpy over the
        // coalesced list (kernels_{scalar,avx2}.cc), so this is
        // bit-identical to the dense scatter below.
        tiered_->ensureResident(grad.rows);
        const KernelTable &kt = kernels();
        for (std::size_t i = 0; i < grad.rows.size(); ++i) {
            kt.axpy(tiered_->rowPtrMut(grad.rows[i]),
                    grad.values.data() + i * dim_, dim_, -lr);
        }
        return;
    }
    // Coalesced rows are unique, so the scatter kernel's no-alias
    // contract holds.
    kernels().scatterAxpyRows(weights_.data(), grad.rows.data(),
                              grad.values.data(), grad.rows.size(), dim_,
                              -lr);
}

void
EmbeddingTable::copyRowsOut(std::uint64_t row, std::uint64_t n,
                            float *dst) const
{
    LAZYDP_ASSERT(row + n <= rows_, "copyRowsOut out of range");
    if (n == 0)
        return;
    if (tiered_ != nullptr) {
        tiered_->copyRowsOut(row, n, dst);
        return;
    }
    if (paged_) {
        for (std::uint64_t r = row; r < row + n; ++r, dst += dim_)
            std::memcpy(dst, rowPtr(r), dim_ * sizeof(float));
        return;
    }
    std::memcpy(dst, weights_.data() + row * dim_,
                static_cast<std::size_t>(n) * dim_ * sizeof(float));
}

void
EmbeddingTable::copyRowsIn(std::uint64_t row, std::uint64_t n,
                           const float *src)
{
    LAZYDP_ASSERT(!paged_, "copyRowsIn on a paged table");
    LAZYDP_ASSERT(row + n <= rows_, "copyRowsIn out of range");
    if (n == 0)
        return;
    if (tiered_ != nullptr) {
        tiered_->copyRowsIn(row, n, src);
        return;
    }
    std::memcpy(weights_.data() + row * dim_, src,
                static_cast<std::size_t>(n) * dim_ * sizeof(float));
}

void
uniqueRows(std::span<const std::uint32_t> indices,
           std::vector<std::uint32_t> &out)
{
    out.assign(indices.begin(), indices.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

} // namespace lazydp
