#include "dp/dp_sgd_b.h"

#include "kernels/kernel_registry.h"

namespace lazydp {

void
DpSgdB::produceShardGrads(std::uint64_t iter, GradShard &s,
                          ExecContext &exec)
{
    (void)iter;
    const std::size_t n = s.batch.batchSize;
    shardForwardLoss(s, exec);

    // Per-example gradient derivation: materialize every MLP layer's
    // per-example weight gradients (the memory-capacity bottleneck of
    // Section 2.5) and derive per-example norms from the materialized
    // tensors plus the per-example embedding gradients.
    s.timer.start(Stage::BackwardPerExample);
    model_.backwardPerExample(s.dLogits, s.topPe, s.bottomPe, s.ws, exec);

    s.normSq.assign(n, 0.0);
    const KernelTable &kt = kernels();
    auto add_norms = [&](const PerExampleGrads &grads) {
        for (const auto &w : grads.w) {
            parallelFor(exec, n, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t e = lo; e < hi; ++e) {
                    s.normSq[e] +=
                        kt.squaredNorm(w.data() + e * w.cols(), w.cols());
                }
            });
        }
        for (const auto &b : grads.b) {
            parallelFor(exec, n, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t e = lo; e < hi; ++e) {
                    s.normSq[e] +=
                        kt.squaredNorm(b.data() + e * b.cols(), b.cols());
                }
            });
        }
    };
    add_norms(s.topPe);
    add_norms(s.bottomPe);
    model_.accumulateEmbeddingGhostNormSq(s.batch, s.normSq, s.ws);

    // Clip + reduce the materialized per-example grads into the shard's
    // gradient sums: w_sum = sum_e scale_e * dW_e.
    clipScales(s.normSq, hyper_.clipNorm, s.scales);

    s.sums.top.ensureShape(model_.topMlp());
    s.sums.bottom.ensureShape(model_.bottomMlp());
    auto reduce = [&](const Mlp &mlp, const PerExampleGrads &grads,
                      MlpGradSums &sums) {
        const auto &layers = mlp.layers();
        for (std::size_t li = 0; li < layers.size(); ++li) {
            reduceScaledRows(grads.w[li], s.scales, sums.w[li], exec);
            reduceScaledRows(grads.b[li], s.scales, sums.b[li], exec);
        }
    };
    reduce(model_.topMlp(), s.topPe, s.sums.top);
    reduce(model_.bottomMlp(), s.bottomPe, s.sums.bottom);

    // Embedding: clip by scaling each example's pooled gradient row.
    for (std::size_t t = 0; t < model_.config().numTables; ++t)
        scaleRows(s.ws.dEmbOut[t], s.scales);
    s.timer.stop();
}

double
DpSgdB::apply(std::uint64_t iter, const MiniBatch &cur,
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

    // Model update: dense noisy update of every table + noisy MLP step.
    for (std::size_t t = 0; t < model_.config().numTables; ++t) {
        denseNoisyTableUpdate(iter, static_cast<std::uint32_t>(t),
                              sparseGrads_[t], batch, exec, timer);
    }
    noisyMlpUpdate(iter, batch, exec, timer);
    return loss;
}

std::uint64_t
DpSgdB::perExampleBytes() const
{
    std::uint64_t total = 0;
    for (const auto &s : shards_)
        total += s.topPe.bytes() + s.bottomPe.bytes();
    return total;
}

} // namespace lazydp
