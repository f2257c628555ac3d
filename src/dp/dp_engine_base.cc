#include "dp/dp_engine_base.h"

#include "common/macros.h"

namespace lazydp {

DpEngineBase::DpEngineBase(DlrmModel &model, const TrainHyper &hyper)
    : model_(model), hyper_(hyper), noise_(hyper.noiseSeed)
{
    sparseGrads_.resize(model.config().numTables);
    LAZYDP_ASSERT(model.config().numTables +
                          model.bottomMlp().layers().size() +
                          model.topMlp().layers().size() <
                      NoiseProvider::kMaxTables,
                  "too many tables+layers for the noise counter layout");
}

std::uint32_t
DpEngineBase::mlpPseudoTable(std::size_t mlp_index) const
{
    // Embedding tables occupy ids [0, numTables); MLP layers follow.
    return static_cast<std::uint32_t>(model_.config().numTables +
                                      mlp_index);
}

void
DpEngineBase::produceShardGrads(std::uint64_t iter, GradShard &s,
                                ExecContext &exec)
{
    // Ghost-clipping flow (DP-SGD(F), EANA, LazyDP): norm pass without
    // parameter gradients, then a clip-reweighted per-batch backward.
    (void)iter;
    shardForwardLoss(model_, s, exec);

    s.timer.start(Stage::BackwardPerExample);
    s.normSq.assign(s.batch.batchSize, 0.0);
    model_.backward(s.dLogits, &s.normSq, s.ws, /*sums=*/nullptr, exec);
    model_.accumulateEmbeddingGhostNormSq(s.batch, s.normSq, s.ws);
    clipScales(s.normSq, hyper_.clipNorm, s.scales);
    s.timer.stop();

    s.timer.start(Stage::BackwardPerBatch);
    scaleRows(s.dLogits, s.scales);
    model_.backward(s.dLogits, nullptr, s.ws, &s.sums, exec);
    s.timer.stop();
}

double
DpEngineBase::shardedBackward(std::uint64_t iter, const MiniBatch &cur,
                              ExecContext &exec, StageTimer &timer)
{
    std::array<LotShardState *, kLotShards> view;
    for (std::size_t s = 0; s < kLotShards; ++s)
        view[s] = &shards_[s];
    return shardedLotBackward(
        model_, cur, view, lotEmbGrad_, exec, timer,
        [&](std::size_t s, ExecContext &rexec) {
            produceShardGrads(iter, shards_[s], rexec);
        });
}

void
DpEngineBase::noisyMlpUpdate(std::uint64_t iter, std::size_t batch,
                             ExecContext &exec, StageTimer &timer)
{
    const float sigma = noiseStddev();
    const float step = hyper_.lr / normDenominator(batch);

    std::size_t mlp_index = 0;
    auto update_mlp = [&](Mlp &mlp) {
        for (auto &layer : mlp.layers()) {
            timer.start(Stage::NoiseSampling);
            addDenseParamNoise(noise_, iter, mlpPseudoTable(mlp_index),
                               sigma, 1.0f, layer.weightGrad().data(),
                               layer.weightGrad().size(), 0, exec);
            // biases share the layer's pseudo-table in a disjoint
            // row range
            addDenseParamNoise(noise_, iter, mlpPseudoTable(mlp_index),
                               sigma, 1.0f, layer.biasGrad().data(),
                               layer.biasGrad().size(),
                               /*row_offset=*/1ull << 40, exec);
            timer.stop();

            timer.start(Stage::NoisyGradUpdate);
            layer.apply(step, decayAlpha());
            timer.stop();
            ++mlp_index;
        }
    };
    update_mlp(model_.bottomMlp());
    update_mlp(model_.topMlp());
}

void
DpEngineBase::denseNoisyTableUpdate(std::uint64_t iter, std::uint32_t table,
                                    const SparseGrad &grad,
                                    std::size_t batch, ExecContext &exec,
                                    StageTimer &timer)
{
    EmbeddingTable &tbl = model_.tables()[table];
    if (denseScratch_.rows() != tbl.rows() ||
        denseScratch_.cols() != tbl.dim()) {
        denseScratch_.resize(tbl.rows(), tbl.dim());
    }

    // (1) compute-bound: one Gaussian per element of the entire table
    timer.start(Stage::NoiseSampling);
    fillDenseTableNoise(noise_, iter, table, noiseStddev(), denseScratch_,
                        exec);
    timer.stop();

    // (2) merge the sparse clipped gradient into the dense tensor
    timer.start(Stage::NoisyGradGen);
    addSparseIntoDense(grad, denseScratch_);
    timer.stop();

    // (3) memory-bound: stream the whole table through the optimizer
    timer.start(Stage::NoisyGradUpdate);
    streamingTableUpdate(tbl, denseScratch_,
                         hyper_.lr / normDenominator(batch),
                         decayAlpha(), exec);
    timer.stop();
}

} // namespace lazydp
