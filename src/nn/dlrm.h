/**
 * @file
 * The DLRM recommendation model (Figure 1 of the paper): bottom MLP
 * over dense features, embedding tables over sparse features, dot
 * feature interaction, top MLP producing a CTR logit.
 *
 * The model exposes exactly the hooks the SGD / DP-SGD(B/R/F) / EANA /
 * LazyDP engines need, each running against a caller-owned
 * DlrmWorkspace:
 *   - forward() caching all activations in the workspace;
 *   - backward() from per-example logit gradients, filling per-layer
 *     MLP batch-gradient sums and per-table pooled-embedding gradients,
 *     optionally accumulating per-example ghost norms;
 *   - backwardNormsOnly() / backwardPerExample() for DP-SGD(R) / (B);
 *   - sparse embedding backward/apply helpers.
 */

#ifndef LAZYDP_NN_DLRM_H
#define LAZYDP_NN_DLRM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "data/minibatch.h"
#include "nn/embedding.h"
#include "nn/interaction.h"
#include "nn/mlp.h"
#include "nn/model_config.h"

namespace lazydp {

/**
 * Forward/backward activation state of one DLRM pass. Being
 * caller-owned, it lets several lot shards run partial-batch passes
 * CONCURRENTLY against the same (read-only) weights -- the
 * data-parallel replica path.
 */
struct DlrmWorkspace
{
    MlpWorkspace bottom;         //!< bottom-MLP caches
    MlpWorkspace top;            //!< top-MLP caches
    Tensor bottomOut;            //!< (batch x embedDim)
    std::vector<Tensor> embOut;  //!< per table (batch x embedDim)
    Tensor interOut;             //!< (batch x interactionDim)
    Tensor interCache;           //!< interaction input cache
    Tensor dInterOut;            //!< (batch x interactionDim)
    Tensor dBottomOut;           //!< (batch x embedDim)
    std::vector<Tensor> dEmbOut; //!< per table (batch x embedDim)
    std::size_t lastBatch = 0;   //!< batch of the last forward
};

/** Caller-owned MLP batch-gradient sums of one partial-batch backward. */
struct DlrmGradSums
{
    MlpGradSums bottom; //!< bottom-MLP per-layer sums
    MlpGradSums top;    //!< top-MLP per-layer sums
};

/** DLRM model; see file comment. */
class DlrmModel
{
  public:
    /**
     * @param config validated model shape
     * @param seed weight-initialization seed
     */
    DlrmModel(const ModelConfig &config, std::uint64_t seed);

    /**
     * Tag selecting the snapshot-buffer constructor: embedding tables
     * are allocated (zeroed) but their per-row RNG initialization is
     * skipped, because the caller overwrites every weight immediately
     * (ModelSnapshotStore::publish). At paper-scale tables the skipped
     * fill is the dominant cost of constructing a snapshot buffer; the
     * MLPs still initialize (kilobytes, not gigabytes).
     */
    struct UninitializedTables
    {
    };

    /** Snapshot-buffer constructor; see UninitializedTables. */
    DlrmModel(const ModelConfig &config, UninitializedTables);

    /**
     * Tag selecting the DELTA-snapshot-buffer constructor: embedding
     * tables are built in PAGED mode (EmbeddingTable::Paged) with no
     * dense allocation at all -- ModelSnapshotStore binds refcounted
     * page handles at publish time, sharing untouched pages with the
     * previous snapshot. Only the const read path (workspace forward)
     * is usable on such a model.
     */
    struct PagedTables
    {
    };

    /** Delta-snapshot-buffer constructor; see PagedTables. */
    DlrmModel(const ModelConfig &config, PagedTables);

    /**
     * Out-of-core model configuration: every embedding table is built
     * in TIERED mode (see nn/tiered_store.h), with the DRAM hot budget
     * divided across tables proportionally to their size and one cold
     * data file per table under coldDir. MLPs stay dense (kilobytes).
     */
    struct TieredModelOptions
    {
        std::uint64_t hotBytes = 0;  //!< total hot budget, all tables
        std::string coldDir;         //!< directory for the cold files
        std::size_t pageRows = 256;  //!< rows per page (multiple of 8)
        bool prefetch = true;        //!< lookahead warm tasks on/off
        bool reuseFiles = false;     //!< re-open existing cold files
        bool keepFiles = false;      //!< keep cold files on destruction
    };

    /**
     * Tiered constructor: same weights as DlrmModel(config, seed) --
     * the per-table init RNG streams are identical -- but the tables
     * live out of core. When @p tier .reuseFiles is set the RNG init is
     * skipped and weights come from the existing cold files instead
     * (crash recovery).
     */
    DlrmModel(const ModelConfig &config, std::uint64_t seed,
              const TieredModelOptions &tier);

    /** @return true when the embedding tables are tiered. */
    bool
    tiered() const
    {
        return !tables_.empty() && tables_.front().tiered();
    }

    /** @return cold-file path of table @p t under @p dir (the naming
     * contract shared by the tiered ctor and crash recovery). */
    static std::string tieredColdPath(const std::string &dir,
                                      std::size_t t);

    /** Join every table's in-flight warm task (no-op unless tiered). */
    void drainTierWarm() const;

    /** Write all dirty hot pages back to the cold files and msync
     * them (no-op unless tiered). */
    void flushTiers();

    /** @return summed TierStats over all tables (zeros unless
     * tiered). */
    TierStats tierStats() const;

    /**
     * Forward pass over a (partial) mini-batch; every activation cache
     * lives in the caller's @p ws. Const -- safe to run concurrently
     * from several lot shards, each with its own workspace, while
     * nobody mutates the weights. Each output row depends only on its
     * own example, so the rows a shard produces are bit-identical to
     * the same examples' rows in a full-lot pass.
     *
     * @param mb input batch (must match the config's shape)
     * @param logits (batch x 1) output scores
     * @param exec execution context for the GEMM/interaction kernels
     */
    void forward(const MiniBatch &mb, Tensor &logits, DlrmWorkspace &ws,
                 ExecContext &exec) const;

    /**
     * Backward from per-example logit gradients through the caches of
     * the matching forward. MLP batch-gradient sums land in the
     * caller's @p sums, pooled embedding gradients in ws.dEmbOut. The
     * model's own gradient tensors stay untouched -- the caller
     * tree-reduces shard sums into them afterwards.
     *
     * @param d_logits (batch x 1), one row per example (callers encode
     *        1/B averaging or per-example clip factors into these rows)
     * @param ghost_norm_sq when non-null, accumulates each example's
     *        squared MLP gradient norm (ghost norms; embedding terms
     *        are added separately via accumulateEmbeddingGhostNormSq)
     * @param sums MLP batch-gradient sums; nullptr derives activation
     *        gradients only (ws.dEmbOut, ws.dBottomOut, ghost norms),
     *        which are the same as with sums
     */
    void backward(const Tensor &d_logits,
                  std::vector<double> *ghost_norm_sq, DlrmWorkspace &ws,
                  DlrmGradSums *sums, ExecContext &exec) const;

    /**
     * DP-SGD(R)'s norm pass: per-example MLP gradients are materialized
     * layer-by-layer into scratch (then discarded) to accumulate
     * per-example squared norms; no batch parameter gradients are
     * produced. Pooled-embedding gradients land in ws.dEmbOut as in
     * backward().
     */
    void backwardNormsOnly(const Tensor &d_logits,
                           std::vector<double> &norm_sq,
                           DlrmWorkspace &ws, ExecContext &exec) const;

    /**
     * Backward materializing per-example MLP gradients (DP-SGD(B)).
     * Pooled-embedding gradients land in ws.dEmbOut as in backward().
     *
     * @param d_logits per-example logit gradients
     * @param top_grads per-example grads of the top MLP
     * @param bottom_grads per-example grads of the bottom MLP
     */
    void backwardPerExample(const Tensor &d_logits,
                            PerExampleGrads &top_grads,
                            PerExampleGrads &bottom_grads,
                            DlrmWorkspace &ws, ExecContext &exec) const;

    /**
     * Add each example's squared embedding-gradient norm (all tables)
     * into @p out, from the pooled gradients in @p ws .dEmbOut. Exact,
     * accounting for duplicate indices within an example (multiplicity
     * m contributes m^2 * ||g_e||^2).
     *
     * Requires one of the backward passes to have run on @p ws.
     */
    void accumulateEmbeddingGhostNormSq(const MiniBatch &mb,
                                        std::vector<double> &out,
                                        const DlrmWorkspace &ws) const;

    /**
     * Coalesce the sparse gradient of table @p t from a pooled-output
     * gradient tensor (batch x dim): one shard's ws.dEmbOut[t], or the
     * lot-wide buffer the lot-sharded engines gather from the shard
     * workspaces.
     */
    void embeddingBackwardFrom(const MiniBatch &mb, std::size_t t,
                               const Tensor &d_out,
                               SparseGrad &grad) const;

    /** SGD step on both MLPs with the stored batch gradients. */
    void applyMlps(float lr);

    /**
     * Overwrite all parameters (embedding tables + both MLPs' weights
     * and biases) with @p other 's. Configurations must be identical
     * (panics otherwise). Gradients are not touched -- copying exactly
     * the state a const forward() reads is what lets ModelSnapshotStore
     * publish consistent serving replicas while training keeps mutating
     * the source model.
     */
    void copyWeightsFrom(const DlrmModel &other);

    /**
     * Overwrite only the dense (MLP) parameters with @p other 's. The
     * delta-publish path: MLPs are kilobytes and fully dirty every
     * iteration, so they are always copied outright, while the
     * embedding tables (the gigabytes) go through page-granular
     * copy-on-write instead.
     */
    void copyMlpWeightsFrom(const DlrmModel &other);

    /** @return the embedding tables. */
    std::vector<EmbeddingTable> &tables() { return tables_; }
    const std::vector<EmbeddingTable> &tables() const { return tables_; }

    Mlp &bottomMlp() { return bottom_; }
    Mlp &topMlp() { return top_; }
    const Mlp &bottomMlp() const { return bottom_; }
    const Mlp &topMlp() const { return top_; }

    const ModelConfig &config() const { return config_; }

    /** @return total dense (MLP) parameter count. */
    std::size_t mlpParamCount() const;

    /** @return total embedding-table bytes. */
    std::uint64_t tableBytes() const;

  private:
    /** Size @p ws 's per-table vectors and record @p batch. */
    void prepareWorkspace(DlrmWorkspace &ws, std::size_t batch) const;

    /**
     * Shared backward skeleton: sizes the gradient buffers of @p ws,
     * then runs the top MLP, the interaction and the bottom MLP,
     * calling @p hook (mlp, mlp_ws, d_y, d_x, is_top) for each MLP's
     * backward.
     */
    template <typename MlpHook>
    void backwardImpl(const Tensor &d_logits, DlrmWorkspace &ws,
                      ExecContext &exec, MlpHook &&hook) const;

    ModelConfig config_;
    Mlp bottom_;
    std::vector<EmbeddingTable> tables_;
    DotInteraction interaction_;
    Mlp top_;
};

} // namespace lazydp

#endif // LAZYDP_NN_DLRM_H
