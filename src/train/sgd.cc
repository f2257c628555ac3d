#include "train/sgd.h"

#include "common/logging.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

SgdAlgorithm::SgdAlgorithm(DlrmModel &model, const TrainHyper &hyper)
    : model_(model), hyper_(hyper)
{
    if (hyper.weightDecay != 0.0f)
        fatal("SGD baseline does not implement weight decay");
    sparseGrads_.resize(model.config().numTables);
}

bool
SgdAlgorithm::enableDirtyTracking(std::size_t page_rows)
{
    if (dirty_ == nullptr || dirty_->pageRows() != page_rows)
        dirty_ = DirtyRowTracker::forModel(model_.config(), page_rows);
    return true;
}

void
SgdAlgorithm::warmTier(const MiniBatch &next, const PreparedStep *prep,
                       ThreadPool *pool)
{
    (void)prep; // SGD has no prepared lookahead state
    if (!model_.tiered() || pool == nullptr)
        return;
    for (std::size_t t = 0; t < model_.config().numTables; ++t) {
        const auto idx = next.tableIndices(t);
        model_.tables()[t].warmRowsAsync(
            pool, std::vector<std::uint32_t>(idx.begin(), idx.end()));
    }
}

double
SgdAlgorithm::apply(std::uint64_t iter, const MiniBatch &cur,
                    PreparedStep &prepared, ExecContext &exec,
                    StageTimer &timer)
{
    (void)iter;
    (void)prepared;
    const std::size_t batch = cur.batchSize;
    const std::size_t num_tables = model_.config().numTables;

    // Lot-sharded gradient production: per shard, forward + loss +
    // plain per-batch backward (no clipping), through the shared
    // orchestration so SGD's dataflow equals the DP engines'.
    std::array<LotShardState *, kLotShards> view;
    for (std::size_t s = 0; s < kLotShards; ++s)
        view[s] = &shards_[s];
    const double loss = shardedLotBackward(
        model_, cur, view, lotEmbGrad_, exec, timer,
        [&](std::size_t s, ExecContext &rexec) {
            LotShardState &sh = shards_[s];
            shardForwardLoss(model_, sh, rexec);

            // per-batch averaging folded into the loss gradient; a
            // per-example operation, so it commutes with the sharding
            sh.timer.start(Stage::Else);
            kernels().scale(sh.dLogits.data(), sh.dLogits.size(),
                            1.0f / static_cast<float>(batch));
            sh.timer.stop();

            sh.timer.start(Stage::BackwardPerBatch);
            model_.backward(sh.dLogits, nullptr, sh.ws, &sh.sums, rexec);
            sh.timer.stop();
        });

    timer.start(Stage::GradCoalesce);
    for (std::size_t t = 0; t < num_tables; ++t)
        model_.embeddingBackwardFrom(cur, t, lotEmbGrad_[t],
                                     sparseGrads_[t]);
    timer.stop();

    // Sparse model update: the entire point of non-private embedding
    // training -- touch only gathered rows.
    timer.start(Stage::NoisyGradUpdate);
    model_.applyMlps(hyper_.lr);
    for (std::size_t t = 0; t < num_tables; ++t) {
        model_.tables()[t].applySparse(sparseGrads_[t], hyper_.lr);
        if (dirty_ != nullptr)
            dirty_->markRows(t, sparseGrads_[t].rows);
    }
    timer.stop();

    return loss;
}

} // namespace lazydp
