/**
 * @file
 * Non-private SGD baseline (paper Figure 2(b)).
 *
 * Derives the per-batch gradient in one backward pass and applies
 * *sparse* embedding updates: only rows gathered during forward are
 * touched. This is the flat line every DP scheme is compared against.
 *
 * Shares the lot-sharded data-parallel structure of the DP engines
 * (train/lot_backward.h): the lot splits into the fixed microbatch
 * shards, each shard's backward fills its own gradient sums, and the
 * fixed tree reduction merges them -- so SGD too is bit-identical
 * across replica counts and participates in the replica sweeps.
 */

#ifndef LAZYDP_TRAIN_SGD_H
#define LAZYDP_TRAIN_SGD_H

#include <array>
#include <vector>

#include "nn/dlrm.h"
#include "train/algorithm.h"
#include "train/lot_backward.h"

namespace lazydp {

/** Plain mini-batch SGD on a DlrmModel. */
class SgdAlgorithm : public Algorithm
{
  public:
    /**
     * @param model model to train (not owned)
     * @param hyper learning rate (DP fields unused)
     */
    SgdAlgorithm(DlrmModel &model, const TrainHyper &hyper);

    std::string name() const override { return "SGD"; }

    const DlrmModel *model() const override { return &model_; }

    /** No lookahead work: the default (empty) prepare applies. */
    double apply(std::uint64_t iter, const MiniBatch &cur,
                 PreparedStep &prepared, ExecContext &exec,
                 StageTimer &timer) override;

    /** SGD's table update is sparse: the coalesced gradient rows are
     * exactly the rows each apply() mutates. */
    bool enableDirtyTracking(std::size_t page_rows) override;

    /** Warm the next batch's rows (exactly the rows its apply will
     * gather and update). Tiered tables only; otherwise a no-op. */
    void warmTier(const MiniBatch &next, const PreparedStep *prep,
                  ThreadPool *pool) override;

  private:
    DlrmModel &model_;
    TrainHyper hyper_;
    std::array<LotShardState, kLotShards> shards_;
    std::vector<Tensor> lotEmbGrad_;
    std::vector<SparseGrad> sparseGrads_;
};

} // namespace lazydp

#endif // LAZYDP_TRAIN_SGD_H
