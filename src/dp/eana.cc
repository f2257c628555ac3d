#include "dp/eana.h"

#include "common/macros.h"
#include "kernels/kernel_registry.h"
#include "nn/embedding.h"

namespace lazydp {

void
EanaAlgorithm::prepare(std::uint64_t iter, const MiniBatch &cur,
                       const MiniBatch *next, PreparedStep &out_base,
                       ExecContext &exec, StageTimer &timer)
{
    (void)next; // EANA has no lookahead; its prepared work keys on cur
    auto &out = static_cast<EanaPrepared &>(out_base);
    out.iter = iter;
    out.tables.resize(model_.config().numTables);

    const float sigma = noiseStddev();
    for (std::size_t t = 0; t < out.tables.size(); ++t) {
        EanaPrepared::TableState &pt = out.tables[t];
        const std::size_t dim = model_.tables()[t].dim();

        timer.start(Stage::GradCoalesce);
        uniqueRows(cur.tableIndices(t), pt.rows);
        timer.stop();

        // Keyed per-row draws: identical values whether sampled here
        // (possibly on the pipeline thread) or inline in the old
        // accumulate-into-gradient path.
        timer.start(Stage::NoiseSampling);
        if (pt.noise.rows() < pt.rows.size() || pt.noise.cols() != dim)
            pt.noise.resize(std::max<std::size_t>(pt.rows.size(), 1),
                            dim);
        noise_.rowNoiseBatch(iter, static_cast<std::uint32_t>(t),
                             pt.rows, sigma, 1.0f, pt.noise.data(), dim,
                             /*accumulate=*/false, exec);
        timer.stop();
    }
}

bool
EanaAlgorithm::enableDirtyTracking(std::size_t page_rows)
{
    if (dirty_ == nullptr || dirty_->pageRows() != page_rows)
        dirty_ = DirtyRowTracker::forModel(model_.config(), page_rows);
    return true;
}

void
EanaAlgorithm::warmTier(const MiniBatch &next, const PreparedStep *prep,
                        ThreadPool *pool)
{
    (void)prep; // prepared rows ARE the batch's dedup -- use the batch
    if (!model_.tiered() || pool == nullptr)
        return;
    for (std::size_t t = 0; t < model_.config().numTables; ++t) {
        const auto idx = next.tableIndices(t);
        model_.tables()[t].warmRowsAsync(
            pool, std::vector<std::uint32_t>(idx.begin(), idx.end()));
    }
}

double
EanaAlgorithm::apply(std::uint64_t iter, const MiniBatch &cur,
                     PreparedStep &prepared, ExecContext &exec,
                     StageTimer &timer)
{
    auto &prep = static_cast<EanaPrepared &>(prepared);
    LAZYDP_ASSERT(prep.iter == iter, "prepared state is for another iter");
    const std::size_t batch = cur.batchSize;

    // Lot-sharded clipping machinery identical to DP-SGD(F).
    const double loss = shardedBackward(iter, cur, exec, timer);

    timer.start(Stage::GradCoalesce);
    for (std::size_t t = 0; t < model_.config().numTables; ++t)
        model_.embeddingBackwardFrom(cur, t, lotEmbGrad_[t],
                                     sparseGrads_[t]);
    timer.stop();

    // EANA's defining shortcut: noise ONLY on the accessed rows, so the
    // table update stays sparse. The noise was sampled in prepare();
    // coalesced grad rows and prepared rows are both the sorted unique
    // indices of cur, so the tensors are row-aligned.
    const float step_scale = hyper_.lr / normDenominator(batch);
    const KernelTable &kt = kernels();
    for (std::size_t t = 0; t < model_.config().numTables; ++t) {
        SparseGrad &grad = sparseGrads_[t];
        EanaPrepared::TableState &pt = prep.tables[t];
        LAZYDP_ASSERT(grad.rows.size() == pt.rows.size(),
                      "prepared noise rows diverge from gradient rows");
        EmbeddingTable &tbl = model_.tables()[t];
        const std::size_t dim = tbl.dim();

        timer.start(Stage::NoisyGradGen);
        parallelForShards(
            exec, grad.rows.size(), 64,
            [&](std::size_t, std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                    float *dst = grad.values.data() + i * dim;
                    kt.add(dst, dst, pt.noise.data() + i * dim, dim);
                }
            });
        timer.stop();

        timer.start(Stage::NoisyGradUpdate);
        tbl.applySparse(grad, step_scale);
        if (dirty_ != nullptr)
            dirty_->markRows(t, grad.rows);
        timer.stop();
    }
    noisyMlpUpdate(iter, batch, exec, timer);
    return loss;
}

} // namespace lazydp
