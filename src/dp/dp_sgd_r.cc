#include "dp/dp_sgd_r.h"

namespace lazydp {

void
DpSgdR::produceShardGrads(std::uint64_t iter, GradShard &s,
                          ExecContext &exec)
{
    (void)iter;
    shardForwardLoss(model_, s, exec);

    // Pass 1: per-example norms via transient materialization.
    s.timer.start(Stage::BackwardPerExample);
    s.normSq.assign(s.batch.batchSize, 0.0);
    model_.backwardNormsOnly(s.dLogits, s.normSq, s.ws, exec);
    model_.accumulateEmbeddingGhostNormSq(s.batch, s.normSq, s.ws);
    clipScales(s.normSq, hyper_.clipNorm, s.scales);
    s.timer.stop();

    // Pass 2: reweighted per-batch backward. Scaling the loss-gradient
    // rows propagates the clip factors to every parameter gradient,
    // including the embedding tables.
    s.timer.start(Stage::BackwardPerBatch);
    scaleRows(s.dLogits, s.scales);
    model_.backward(s.dLogits, nullptr, s.ws, &s.sums, exec);
    s.timer.stop();
}

double
DpSgdR::apply(std::uint64_t iter, const MiniBatch &cur,
              PreparedStep &prepared, ExecContext &exec, StageTimer &timer)
{
    (void)prepared;
    const std::size_t batch = cur.batchSize;
    const double loss = shardedBackward(iter, cur, exec, timer);

    timer.start(Stage::GradCoalesce);
    for (std::size_t t = 0; t < model_.config().numTables; ++t)
        model_.embeddingBackwardFrom(cur, t, lotEmbGrad_[t],
                                     sparseGrads_[t]);
    timer.stop();

    for (std::size_t t = 0; t < model_.config().numTables; ++t) {
        denseNoisyTableUpdate(iter, static_cast<std::uint32_t>(t),
                              sparseGrads_[t], batch, exec, timer);
    }
    noisyMlpUpdate(iter, batch, exec, timer);
    return loss;
}

} // namespace lazydp
