/**
 * @file
 * LazyDP: the paper's algorithm-software co-design (Section 5).
 *
 * Two optimizations over eager DP-SGD, composed:
 *
 *  1. Lazy noise update -- a row's Gaussian noise is deferred until the
 *     iteration immediately before its next access (discovered through
 *     the next-minibatch lookahead), so the per-iteration table update
 *     is sparse: O(pooling * batch) rows instead of O(table rows).
 *
 *  2. Aggregated noise sampling (ANS) -- the k deferred noise draws of
 *     a row collapse into a single N(0, k sigma^2 C^2) draw
 *     (Theorem 5.1), eliminating the compute bottleneck the deferral
 *     alone leaves behind. Constructible without ANS for the paper's
 *     "LazyDP(w/o ANS)" ablation.
 *
 * finalize() flushes all still-pending noise so the released model is
 * exactly the one eager DP-SGD would have produced (same threat model
 * as Section 3: the adversary sees the final model, not intermediate
 * states).
 *
 * MLP (dense) layers receive the identical DP-SGD(F) treatment.
 *
 * Extension beyond the paper -- lazy weight decay: eager DP-SGD with
 * L2 decay multiplies EVERY row by alpha = 1 - lr*lambda each
 * iteration (a second dense pass). LazyDP defers it: k deferred steps
 * collapse to w *= alpha^k, and the deferred noise picks up geometric
 * weights, sum_j alpha^(i-j) n_j, which under ANS is still ONE draw
 * with variance sigma^2 C^2 (1 - alpha^2k) / (1 - alpha^2). A second
 * per-row iteration table (allocated only when decay is on, sparse
 * writes like the HistoryTable) tracks decay because gradient steps
 * apply their own single-step decay out of band. Exact equivalence
 * with the eager engines is tested.
 */

#ifndef LAZYDP_CORE_LAZYDP_H
#define LAZYDP_CORE_LAZYDP_H

#include <memory>
#include <vector>

#include "core/history_table.h"
#include "dp/dp_engine_base.h"

namespace lazydp {

/**
 * LazyDP's prepared state: per embedding table, the deduplicated
 * next-batch rows, their (lazily aggregated) keyed noise, and -- when
 * deferred weight decay is active -- the per-row pending decay step
 * counts. Everything here derives from batch indices, the HistoryTable
 * and the keyed noise streams; nothing reads model weights, which is
 * what lets the Trainer compute it one iteration ahead.
 */
class LazyDpPrepared : public PreparedStep
{
  public:
    struct TableState
    {
        std::vector<std::uint32_t> nextUnique; //!< sorted next-batch rows
        Tensor noiseVals;                      //!< (|nextUnique| x dim)

        /** Pending decay steps per nextUnique row (decay mode only). */
        std::vector<std::uint32_t> decayDelays;

        /**
         * Pending decay steps per coalesced current-batch row (decay
         * mode only; 0 for rows also in nextUnique, whose decay is
         * covered by decayDelays). Indexed like the SparseGrad row
         * list, which equals the sorted unique current-batch indices.
         */
        std::vector<std::uint32_t> curDecaySteps;
    };

    std::vector<TableState> tables;
};

/** LazyDP training engine. */
class LazyDpAlgorithm : public DpEngineBase
{
  public:
    /**
     * @param model model to train (not owned)
     * @param hyper DP hyperparameters
     * @param use_ans enable aggregated noise sampling (default on)
     */
    LazyDpAlgorithm(DlrmModel &model, const TrainHyper &hyper,
                    bool use_ans = true);

    std::string
    name() const override
    {
        return useAns_ ? "LazyDP" : "LazyDP(w/o ANS)";
    }

    std::unique_ptr<PreparedStep>
    makePrepared() const override
    {
        return std::make_unique<LazyDpPrepared>();
    }

    /**
     * The paper's per-iteration lookahead work (Algorithm 1 lines
     * 11-18), all of it weight-independent: next-batch dedup,
     * HistoryTable delay reads + renewal, ANS stddev derivation and
     * keyed noise sampling -- plus ALL deferred-decay bookkeeping, so
     * the History/decay tables are owned exclusively by prepare() and
     * apply() never races them under the pipelined schedule.
     */
    void prepare(std::uint64_t iter, const MiniBatch &cur,
                 const MiniBatch *next, PreparedStep &out,
                 ExecContext &exec, StageTimer &timer) override;

    double apply(std::uint64_t iter, const MiniBatch &cur,
                 PreparedStep &prepared, ExecContext &exec,
                 StageTimer &timer) override;

    /**
     * Apply every pending noise update through @p last_iter (one dense
     * sweep, once per training run, sharded by embedding row) so the
     * final model matches eager DP-SGD exactly.
     */
    void finalize(std::uint64_t last_iter, ExecContext &exec,
                  StageTimer &timer) override;

    /**
     * LazyDP's merged sparse update list (gradient rows + next-access
     * noise rows) is exactly the set of rows each apply() mutates --
     * the dirty oracle delta snapshot publishing needs. finalize()'s
     * dense catch-up sweep marks everything dirty.
     */
    bool enableDirtyTracking(std::size_t page_rows) override;

    /**
     * Warm the next apply's merged update set: the next batch's rows
     * (its gradient) plus the prepared nextUnique row lists (the rows
     * the iteration AFTER it will access, whose pending noise the next
     * apply flushes). prepare() is the perfect prefetch oracle here --
     * the warm set covers the merged row list exactly. Tiered tables
     * only; otherwise a no-op.
     */
    void warmTier(const MiniBatch &next, const PreparedStep *prep,
                  ThreadPool *pool) override;

    /** @return the metadata structure (tests & overhead bench). */
    const HistoryTable &historyTable() const { return history_; }

    /** Mutable HistoryTable access for checkpoint restore (io/). */
    HistoryTable &historyTableMutable() { return history_; }

    /** @return deferred-decay table, or nullptr when decay is off. */
    const HistoryTable *decayTable() const { return decayed_.get(); }

    /** Mutable decay-table access for checkpoint restore (io/). */
    HistoryTable *decayTableMutable() { return decayed_.get(); }

    /** @return whether ANS is active. */
    bool ansEnabled() const { return useAns_; }

    /** @return bytes of LazyDP-specific metadata (Section 7.2). */
    std::uint64_t metadataBytes() const;

    /**
     * Benchmark support: initialize the HistoryTable as if training had
     * already run for @p start_iter iterations, with per-row pending
     * ages drawn geometrically around @p expected_delay (the
     * steady-state age distribution under uniform accesses). Without
     * this, short measured runs would under-state the w/o-ANS noise
     * sampling volume. Subsequent step() calls must use iteration ids
     * greater than @p start_iter.
     */
    void warmStartHistory(std::uint64_t start_iter, double expected_delay,
                          std::uint64_t seed);

    /** Cumulative sub-components of the LazyOverhead stage (Fig 11). */
    struct OverheadBreakdown
    {
        double dedupSeconds = 0.0;       //!< next-batch index dedup
        double historyReadSeconds = 0.0; //!< delays + ANS stddev derive
        double historyWriteSeconds = 0.0;//!< HistoryTable renewal
    };

    /** @return accumulated overhead sub-stage times. */
    const OverheadBreakdown &overheadBreakdown() const
    {
        return overhead_;
    }

  private:
    /**
     * Prepare-half of one table's lazy update: dedup the next batch,
     * read/renew the History (and decay) tables, and sample the keyed
     * noise into @p pt.
     */
    void prepareTable(std::uint64_t iter, std::size_t t,
                      const MiniBatch &cur, const MiniBatch *next,
                      LazyDpPrepared::TableState &pt, ExecContext &exec,
                      StageTimer &timer);

    /**
     * Apply-half of one table's lazy update: coalesce this iteration's
     * clipped sparse gradient, merge it with the prepared noise, and
     * apply the combined sparse update to table @p t. Merge
     * materialization and the row updates are sharded by embedding row
     * over @p exec; rows are unique within each list, so shards write
     * disjoint rows and the result is identical at any thread count.
     */
    void applyTableUpdate(std::uint64_t iter, std::size_t t,
                          const MiniBatch &cur,
                          LazyDpPrepared::TableState &pt,
                          std::size_t batch, ExecContext &exec,
                          StageTimer &timer);

    bool useAns_;
    HistoryTable history_;
    std::size_t lastBatchSize_ = 0; //!< B, for finalize noise scaling
    OverheadBreakdown overhead_;

    /**
     * Deferred-decay bookkeeping (allocated only when weightDecay > 0):
     * last iteration whose multiplicative decay has been applied to
     * each row. Distinct from the HistoryTable because gradient steps
     * apply their single-step decay immediately while their noise
     * stays pending.
     */
    std::unique_ptr<HistoryTable> decayed_;

    // prepare()-only scratch. Prepares are serialized (the pipeline
    // runs one at a time, in iteration order), so reuse across
    // iterations and tables is race-free.
    std::vector<std::uint32_t> delays_;
    std::vector<std::uint32_t> curUnique_;

    // apply()-only scratch (reused across tables)
    std::vector<std::uint32_t> mergedRows_;
    Tensor mergedVals_;  // (|merged| x dim)
    // Per-merged-row source indices (kNoSource = absent), precomputed
    // during the serial merge so value fill + row update parallelize.
    std::vector<std::uint32_t> mergedGradIdx_;
    std::vector<std::uint32_t> mergedNextIdx_;

    static constexpr std::uint32_t kNoSource = 0xFFFFFFFFu;
};

/** Options of the make-private facade (mirrors paper Figure 9(a)). */
struct LazyDpOptions
{
    float noiseMultiplier = 1.1f; //!< sigma
    float maxGradientNorm = 1.0f; //!< C
    float lr = 0.05f;
    std::uint64_t noiseSeed = 0xD9;
    bool useAns = true;

    /** Fixed lot size for Poisson subsampling (0 = realized batch). */
    std::size_t lotSize = 0;
};

/**
 * Wrap a model into a LazyDP private trainer -- the C++ analogue of
 * `LazyDP.make_private(module, optimizer, data_loader, ...)`.
 *
 * @param model model to train privately
 * @param options hyperparameters
 * @return an Algorithm to hand to Trainer::run
 */
std::unique_ptr<LazyDpAlgorithm> makePrivate(DlrmModel &model,
                                             const LazyDpOptions &options);

} // namespace lazydp

#endif // LAZYDP_CORE_LAZYDP_H
