/**
 * @file
 * Shared machinery of the differentially private training engines.
 *
 * Semantics implemented here (Abadi et al.):
 *   g_tilde = (1/B) * ( sum_e clip_C(g_e) + N(0, sigma^2 C^2 I) )
 *   theta  -= eta * g_tilde
 *
 * Engines keep gradients *unaveraged* through backward and fold the
 * 1/B into the final update scale, matching Algorithm 1 of the paper
 * (noise is scaled by 1/B at generation / update time).
 *
 * Every engine draws noise from the keyed NoiseProvider so the exact
 * same Gaussian destined for (iteration, table, row) is produced no
 * matter which engine -- the basis of the equivalence tests.
 *
 * Lot-sharded gradient production (train/replica.h): every engine's
 * apply() splits the lot into kLotShards position-stable microbatch
 * shards; each shard runs forward + loss + per-example clipping +
 * backward into its OWN workspace and gradient buffers (engine-specific
 * via produceShardGrads), optionally fanned across worker replicas.
 * The fixed-tree reduction then merges the per-shard MLP gradient sums
 * into the layers and gathers the per-example pooled embedding
 * gradients into lot-wide buffers, after which the engine's single
 * keyed-noise add and model update run exactly once on the aggregate.
 * The decomposition never depends on the replica or thread count, so
 * the trained model is bit-identical at any parallelism setting.
 */

#ifndef LAZYDP_DP_DP_ENGINE_BASE_H
#define LAZYDP_DP_DP_ENGINE_BASE_H

#include <array>
#include <cstdint>
#include <vector>

#include "dp/clipping.h"
#include "dp/noise_ops.h"
#include "nn/dlrm.h"
#include "rng/noise_provider.h"
#include "train/algorithm.h"
#include "train/lot_backward.h"
#include "train/replica.h"

namespace lazydp {

/** Base class for DP-SGD(B/R/F), EANA and LazyDP. */
class DpEngineBase : public Algorithm
{
  public:
    /**
     * @param model model to train (not owned)
     * @param hyper DP hyperparameters
     */
    DpEngineBase(DlrmModel &model, const TrainHyper &hyper);

    /** @return the keyed noise source (tests inspect determinism). */
    const NoiseProvider &noiseProvider() const { return noise_; }

    const DlrmModel *model() const override { return &model_; }

  protected:
    /**
     * Gradient-production state of ONE microbatch shard of the current
     * lot: the shared LotShardState plus the DP engines' per-example
     * clipping scratch. Everything a shard touches while replicas run
     * concurrently lives here (or in lot-wide buffers at disjoint row
     * ranges), so shard execution is race-free by construction.
     */
    struct GradShard : LotShardState
    {
        std::vector<double> normSq; //!< per-example squared grad norms
        std::vector<float> scales;  //!< per-example clip factors
        PerExampleGrads topPe;      //!< DP-SGD(B) materialization
        PerExampleGrads bottomPe;   //!< DP-SGD(B) materialization
    };

    /** Provider pseudo-table id of MLP layer @p mlp_index. */
    std::uint32_t mlpPseudoTable(std::size_t mlp_index) const;

    /**
     * Engine-specific shard gradient production: from the shard's
     * materialized sub-batch to (a) clipped per-layer MLP gradient sums
     * in s.sums and (b) clipped pooled per-example embedding gradients
     * in s.ws.dEmbOut. The default implements the ghost-clipping flow
     * shared by DP-SGD(F), EANA and LazyDP; DP-SGD(B/R) override.
     *
     * Must be safe to run concurrently with other shards: only @p s,
     * read-only model weights, and @p exec may be touched.
     */
    virtual void produceShardGrads(std::uint64_t iter, GradShard &s,
                                   ExecContext &exec);

    /**
     * The lot-sharded first half of every engine's apply(): the shared
     * shardedLotBackward orchestration (train/lot_backward.h) driving
     * this engine's produceShardGrads over shards_, with the pooled
     * embedding gradients gathered into lotEmbGrad_.
     *
     * @return the lot mean loss (tree-reduced shard sums / batch)
     */
    double shardedBackward(std::uint64_t iter, const MiniBatch &cur,
                           ExecContext &exec, StageTimer &timer);

    /**
     * Noisy update of every MLP layer: assumes each layer's batch
     * gradients already hold sum_e clip(g_e); adds N(0, sigma^2 C^2)
     * and applies with step lr/B.
     */
    void noisyMlpUpdate(std::uint64_t iter, std::size_t batch,
                        ExecContext &exec, StageTimer &timer);

    /**
     * Eager dense noisy update of one embedding table (DP-SGD(B/R/F)):
     * noise for EVERY row + sparse clipped gradient, streamed into the
     * weights (paper Figure 4(b)). Stages: NoiseSampling, NoisyGradGen,
     * NoisyGradUpdate.
     *
     * @param grad coalesced clipped gradient of this table
     */
    void denseNoisyTableUpdate(std::uint64_t iter, std::uint32_t table,
                               const SparseGrad &grad, std::size_t batch,
                               ExecContext &exec, StageTimer &timer);

    /** sigma * C: the per-iteration noise stddev. */
    float
    noiseStddev() const
    {
        return hyper_.noiseMultiplier * hyper_.clipNorm;
    }

    /** Per-step multiplicative decay alpha = 1 - lr * lambda. */
    float
    decayAlpha() const
    {
        return 1.0f - hyper_.lr * hyper_.weightDecay;
    }

    /**
     * DP normalization denominator: the fixed lot size when set
     * (Poisson sampling), else the realized batch size.
     */
    float
    normDenominator(std::size_t realized_batch) const
    {
        return static_cast<float>(
            hyper_.lotSize != 0 ? hyper_.lotSize : realized_batch);
    }

    DlrmModel &model_;
    TrainHyper hyper_;
    NoiseProvider noise_;

    std::array<GradShard, kLotShards> shards_;
    /** Per table: (lot x dim) pooled gradients gathered from shards. */
    std::vector<Tensor> lotEmbGrad_;
    std::vector<SparseGrad> sparseGrads_;
    Tensor denseScratch_; // rows x dim dense noisy-gradient staging
};

} // namespace lazydp

#endif // LAZYDP_DP_DP_ENGINE_BASE_H
