#include "train/lot_backward.h"

#include <cstring>

#include "nn/loss.h"

namespace lazydp {

void
shardForwardLoss(const DlrmModel &model, LotShardState &s,
                 ExecContext &exec)
{
    s.timer.start(Stage::Forward);
    model.forward(s.batch, s.logits, s.ws, exec);
    s.timer.stop();

    s.timer.start(Stage::Else);
    s.lossSum = BceWithLogitsLoss::forwardSum(s.logits, s.batch.labels);
    if (s.dLogits.rows() != s.batch.batchSize || s.dLogits.cols() != 1)
        s.dLogits.resize(s.batch.batchSize, 1);
    BceWithLogitsLoss::backwardPerExample(s.logits, s.batch.labels,
                                          s.dLogits);
    s.timer.stop();
}

double
shardedLotBackward(
    DlrmModel &model, const MiniBatch &cur,
    const std::array<LotShardState *, kLotShards> &shards,
    std::vector<Tensor> &lot_emb_grad, ExecContext &exec,
    StageTimer &timer,
    const std::function<void(std::size_t, ExecContext &)> &produce)
{
    const std::size_t num_tables = model.config().numTables;
    const std::size_t dim = model.config().embedDim;

    // Slice the lot into the fixed microbatch shards (boundaries from
    // the lot size alone) and size the lot-wide gather buffers.
    timer.start(Stage::Else);
    if (lot_emb_grad.size() != num_tables)
        lot_emb_grad.resize(num_tables);
    for (std::size_t t = 0; t < num_tables; ++t) {
        if (lot_emb_grad[t].rows() != cur.batchSize ||
            lot_emb_grad[t].cols() != dim)
            lot_emb_grad[t].resizeNoShrink(cur.batchSize, dim);
    }
    for (std::size_t s = 0; s < kLotShards; ++s) {
        LotShardState &sh = *shards[s];
        const auto [lo, hi] = lotShardBounds(cur.batchSize, s);
        sh.lo = lo;
        sh.hi = hi;
        if (hi > lo)
            cur.slice(lo, hi, sh.batch);
        sh.lossSum = 0.0;
        sh.timer.reset();
    }
    timer.stop();

    // Fan the shards across the worker replicas. Each shard writes only
    // its own state plus disjoint row ranges of lot_emb_grad.
    runReplicated(exec, [&](std::size_t s, ExecContext &rexec) {
        LotShardState &sh = *shards[s];
        if (sh.lo == sh.hi) {
            // Empty shard (lot smaller than kLotShards): its partial
            // sums are exact zeros so the fixed tree stays intact.
            sh.sums.top.ensureShape(model.topMlp());
            sh.sums.bottom.ensureShape(model.bottomMlp());
            sh.sums.top.zero();
            sh.sums.bottom.zero();
            return;
        }
        produce(s, rexec);
        for (std::size_t t = 0; t < num_tables; ++t) {
            std::memcpy(lot_emb_grad[t].data() + sh.lo * dim,
                        sh.ws.dEmbOut[t].data(),
                        (sh.hi - sh.lo) * dim * sizeof(float));
        }
    });

    // Deterministic post-join bookkeeping: shard timers merge in shard
    // order (their overlapped wall time counts into busySeconds).
    for (LotShardState *sh : shards)
        timer.merge(sh->timer);

    // Fixed-tree reduction of the per-shard MLP gradient sums into the
    // layers' own gradient tensors: out = (q0 + q1) + (q2 + q3),
    // identical for every replica/thread count.
    timer.start(Stage::BackwardPerBatch);
    auto reduce_mlp = [&](Mlp &mlp, auto member) {
        auto &layers = mlp.layers();
        for (std::size_t li = 0; li < layers.size(); ++li) {
            treeReduce4((shards[0]->sums.*member).w[li],
                        (shards[1]->sums.*member).w[li],
                        (shards[2]->sums.*member).w[li],
                        (shards[3]->sums.*member).w[li],
                        layers[li].weightGrad(), exec);
            treeReduce4((shards[0]->sums.*member).b[li],
                        (shards[1]->sums.*member).b[li],
                        (shards[2]->sums.*member).b[li],
                        (shards[3]->sums.*member).b[li],
                        layers[li].biasGrad(), exec);
        }
    };
    reduce_mlp(model.topMlp(), &DlrmGradSums::top);
    reduce_mlp(model.bottomMlp(), &DlrmGradSums::bottom);
    timer.stop();

    return treeReduce4(shards[0]->lossSum, shards[1]->lossSum,
                       shards[2]->lossSum, shards[3]->lossSum) /
           static_cast<double>(cur.batchSize);
}

} // namespace lazydp
