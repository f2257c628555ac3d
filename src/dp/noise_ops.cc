#include "dp/noise_ops.h"

#include "common/macros.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

void
fillDenseTableNoise(const NoiseProvider &np, std::uint64_t iter,
                    std::uint32_t table, float sigma, Tensor &noise,
                    ExecContext &exec)
{
    const std::size_t rows = noise.rows();
    const std::size_t dim = noise.cols();
    // Keyed streams make every row independent -- embarrassingly
    // parallel, exactly like the paper's optimized torch.normal().
    parallelFor(exec, rows, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
            np.rowNoise(iter, table, r, sigma, 1.0f,
                        noise.data() + r * dim, dim,
                        /*accumulate=*/false);
        }
    });
}

void
addSparseIntoDense(const SparseGrad &grad, Tensor &dense)
{
    const std::size_t dim = dense.cols();
    LAZYDP_ASSERT(grad.values.cols() == dim, "sparse/dense dim mismatch");
    // a == 1.0f makes the scatter's fmadd bit-equal to a plain add, so
    // this matches the historical per-row add exactly.
    kernels().scatterAxpyRows(dense.data(), grad.rows.data(),
                              grad.values.data(), grad.rows.size(), dim,
                              1.0f);
}

void
streamingTableUpdate(Tensor &weights, const Tensor &update, float scale,
                     float decay, ExecContext &exec)
{
    LAZYDP_ASSERT(weights.rows() == update.rows() &&
                      weights.cols() == update.cols(),
                  "update tensor shape mismatch");
    const std::size_t n = weights.size();
    const KernelTable &kt = kernels();
    // Fixed 64K-element shards: boundaries depend on n only, so the
    // streamed result is identical at any thread count.
    parallelForShards(
        exec, n, 1u << 16,
        [&](std::size_t, std::size_t lo, std::size_t hi) {
            const std::size_t len = hi - lo;
            if (decay == 1.0f) {
                kt.axpy(weights.data() + lo, update.data() + lo, len,
                        -scale);
            } else {
                // w = decay * w - scale * update (weight decay folded
                // into the same streaming pass)
                kt.axpby(weights.data() + lo, update.data() + lo, len,
                         -scale, decay);
            }
        });
}

void
streamingTableUpdate(EmbeddingTable &table, const Tensor &update,
                     float scale, float decay, ExecContext &exec)
{
    if (!table.tiered()) {
        streamingTableUpdate(table.weights(), update, scale, decay,
                             exec);
        return;
    }
    TieredStore &store = table.tier();
    const std::size_t dim = table.dim();
    const std::size_t page_floats = store.pageRows() * dim;
    const std::size_t n =
        static_cast<std::size_t>(table.rows()) * dim;
    LAZYDP_ASSERT(update.size() == n, "update tensor shape mismatch");
    const KernelTable &kt = kernels();
    // Same 64K shards as the dense overload, each walked page by page.
    // Both cut points (64K shard starts, page boundaries) are multiples
    // of 8 floats, so sub-range starts keep the kernels' 8-wide group
    // alignment and the arithmetic matches the dense sweep bit for bit.
    parallelForShards(
        exec, n, 1u << 16,
        [&](std::size_t, std::size_t lo, std::size_t hi) {
            std::size_t pos = lo;
            while (pos < hi) {
                const std::size_t p = pos / page_floats;
                const std::size_t in_page = pos % page_floats;
                const std::size_t len =
                    std::min(hi - pos, page_floats - in_page);
                float *w = store.pagePtrMut(p) + in_page;
                if (decay == 1.0f) {
                    kt.axpy(w, update.data() + pos, len, -scale);
                } else {
                    kt.axpby(w, update.data() + pos, len, -scale,
                             decay);
                }
                pos += len;
            }
        });
}

void
addDenseParamNoise(const NoiseProvider &np, std::uint64_t iter,
                   std::uint32_t pseudo_table, float sigma, float scale,
                   float *dst, std::size_t n, std::uint64_t row_offset,
                   ExecContext &exec)
{
    // Chunk the flat array into provider pseudo-rows of kMaxDim; every
    // chunk owns a disjoint output range and a keyed counter, so the
    // chunks can run in any order on any thread.
    const std::size_t chunk = NoiseProvider::kMaxDim;
    const std::size_t n_chunks = (n + chunk - 1) / chunk;
    if (n_chunks == 1) {
        // One pseudo-row (biases, small layers): parallelize inside the
        // fill instead of across chunks -- bit-identical either way.
        np.rowNoiseParallel(iter, pseudo_table, row_offset, sigma, scale,
                            dst, n, /*accumulate=*/true, exec);
        return;
    }
    parallelFor(exec, n_chunks, [&](std::size_t clo, std::size_t chi) {
        for (std::size_t c = clo; c < chi; ++c) {
            const std::size_t lo = c * chunk;
            const std::size_t len = std::min(chunk, n - lo);
            np.rowNoise(iter, pseudo_table, row_offset + c, sigma, scale,
                        dst + lo, len, /*accumulate=*/true);
        }
    });
}

} // namespace lazydp
