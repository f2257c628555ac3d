/**
 * @file
 * The shared lot-sharded backward orchestration used by every engine
 * (the DP engines through DpEngineBase, non-private SGD directly).
 *
 * One function owns the whole replica dataflow -- slice the lot into
 * the fixed microbatch shards, fan an engine-supplied produce callback
 * across the worker replicas, merge shard timers in shard order,
 * tree-reduce the per-shard MLP gradient sums into the model's layers,
 * gather pooled embedding gradients into lot-wide buffers -- so a fix
 * to the dataflow (or a change to the reduction shape) lands in
 * exactly one place and the engines cannot drift apart, which is what
 * the cross-engine bit-identity invariant rests on.
 */

#ifndef LAZYDP_TRAIN_LOT_BACKWARD_H
#define LAZYDP_TRAIN_LOT_BACKWARD_H

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/timer.h"
#include "data/minibatch.h"
#include "nn/dlrm.h"
#include "train/replica.h"

namespace lazydp {

/**
 * State every microbatch shard carries through one lot backward. The
 * engines extend it with their per-shard clipping scratch; this base
 * holds exactly what the shared orchestration touches.
 */
struct LotShardState
{
    std::size_t lo = 0;   //!< first lot example of this shard
    std::size_t hi = 0;   //!< one past the last lot example
    MiniBatch batch;      //!< materialized slice of the lot
    DlrmWorkspace ws;     //!< activation/backward caches
    Tensor logits;        //!< (shard x 1)
    Tensor dLogits;       //!< (shard x 1) per-example loss grads
    DlrmGradSums sums;    //!< per-layer MLP gradient sums
    double lossSum = 0.0; //!< per-example loss sum of the shard
    StageTimer timer;     //!< merged into the lot timer post-join
};

/**
 * Shard stage 1 of every engine: forward + loss sum + per-example
 * (unscaled) logit gradients into @p s. Attributes Stage::Forward/Else
 * to s.timer. Const on @p model, so shards may run it concurrently.
 */
void shardForwardLoss(const DlrmModel &model, LotShardState &s,
                      ExecContext &exec);

/**
 * Run one lot-sharded backward over @p cur:
 *
 *  1. slice the lot into the kLotShards position-stable shards and
 *     size @p lot_emb_grad (one (lot x dim) tensor per table);
 *  2. fan @p produce across the replicas of @p exec (train/replica.h);
 *     empty shards contribute exact-zero sums so the fixed tree stays
 *     intact; non-empty shards' pooled gradients (ws.dEmbOut) gather
 *     into @p lot_emb_grad at disjoint row ranges after produce;
 *  3. merge shard timers into @p timer in shard order;
 *  4. tree-reduce the shard MLP sums into the model's own layer
 *     gradient tensors: (q0 + q1) + (q2 + q3), replica-invariant.
 *
 * @param produce engine-specific shard gradient production, called
 *        exactly once per non-empty shard (by index, possibly
 *        concurrently); it must fill the shard's sums, ws.dEmbOut and
 *        lossSum, touching only that shard's state
 * @return the lot mean loss (tree-reduced shard sums / lot size)
 */
double shardedLotBackward(
    DlrmModel &model, const MiniBatch &cur,
    const std::array<LotShardState *, kLotShards> &shards,
    std::vector<Tensor> &lot_emb_grad, ExecContext &exec,
    StageTimer &timer,
    const std::function<void(std::size_t, ExecContext &)> &produce);

} // namespace lazydp

#endif // LAZYDP_TRAIN_LOT_BACKWARD_H
