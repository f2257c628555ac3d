/**
 * @file
 * The uniform training-algorithm interface.
 *
 * Every optimizer in the repository -- non-private SGD, the eager
 * DP-SGD(B/R/F) baselines, EANA, and LazyDP -- implements Algorithm, so
 * the Trainer and every benchmark treat them interchangeably and time
 * them with the same StageTimer stages (the stages of the paper's
 * Figures 3, 5, 10, 11).
 *
 * An iteration is split into two stages so the Trainer can software-
 * pipeline them:
 *
 *   prepare(iter)  batch-dependent, model-weight-INDEPENDENT work:
 *                  next-batch index dedup, HistoryTable delay reads,
 *                  ANS stddev derivation, keyed Philox noise sampling.
 *                  Results land in a PreparedStep buffer.
 *   apply(iter)    model-weight-dependent work: forward/backward,
 *                  clipping, and the (merged sparse) update, consuming
 *                  the PreparedStep.
 *
 * Because all noise is keyed by (iteration, table, row) and prepares
 * execute strictly in iteration order, running prepare(i+1) overlapped
 * with apply(i) yields a bit-identical model to the serial schedule --
 * see train/trainer.h for the pipeline itself.
 */

#ifndef LAZYDP_TRAIN_ALGORITHM_H
#define LAZYDP_TRAIN_ALGORITHM_H

#include <cstdint>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/minibatch.h"
#include "train/dirty_tracker.h"

namespace lazydp {

class DlrmModel;

/** Hyperparameters shared by all training algorithms. */
struct TrainHyper
{
    float lr = 0.05f;             //!< learning rate (eta)
    float clipNorm = 1.0f;        //!< max per-example grad norm (C)
    float noiseMultiplier = 1.0f; //!< DP noise multiplier (sigma)
    std::uint64_t noiseSeed = 0xD9; //!< privacy-noise seed

    /**
     * Optional L2 weight decay (lambda): each step multiplies weights
     * by alpha = 1 - lr*lambda before the gradient/noise update.
     * Supported by DP-SGD(B/R/F) (dense decay pass) and LazyDP
     * (deferred multiplicatively, see core/lazydp.h); SGD and EANA
     * reject it.
     */
    float weightDecay = 0.0f;

    /**
     * Fixed normalization denominator for DP updates (Abadi et al.'s
     * lot size L). Under Poisson subsampling the realized batch size
     * varies per step, but the mechanism must divide by the FIXED
     * expected size or the noise scale would leak the realized count.
     * 0 (default) divides by the realized batch size, which is correct
     * for fixed-size sequential loading.
     */
    std::size_t lotSize = 0;
};

/**
 * Reusable buffer for one iteration's prepared (weight-independent)
 * state. Engines with real lookahead work subclass it (see
 * LazyDpAlgorithm / EanaAlgorithm); engines without any use the base
 * directly, which only records the iteration it was prepared for.
 *
 * The Trainer double-buffers two of these per algorithm so prepare(i+1)
 * can fill one buffer while apply(i) drains the other.
 */
class PreparedStep
{
  public:
    virtual ~PreparedStep() = default;

    std::uint64_t iter = 0; //!< iteration this buffer was prepared for
};

/** One training algorithm bound to a model. */
class Algorithm
{
  public:
    virtual ~Algorithm() = default;

    /** @return short display name, e.g. "DP-SGD(F)". */
    virtual std::string name() const = 0;

    /**
     * The model this algorithm trains, or nullptr for algorithms not
     * bound to a DlrmModel. The Trainer reads it to publish versioned
     * serving snapshots (TrainOptions::snapshotStore); every engine in
     * the repository overrides it.
     */
    virtual const DlrmModel *model() const { return nullptr; }

    /**
     * Allocate a prepared-state buffer matching this engine's
     * prepare(). Callers reuse buffers across iterations; engines with
     * lookahead state override to return their subclass.
     */
    virtual std::unique_ptr<PreparedStep>
    makePrepared() const
    {
        return std::make_unique<PreparedStep>();
    }

    /**
     * Stage 1 of an iteration: all batch-dependent work that does NOT
     * read or write model weights, written into @p out. Safe to run
     * concurrently with apply() of the PREVIOUS iteration; prepares
     * must execute in iteration order (engines may carry metadata such
     * as the HistoryTable forward from one prepare to the next).
     *
     * The default implementation only records @p iter (engines without
     * lookahead work).
     *
     * @param iter 1-based global iteration id (keys the noise streams)
     * @param cur this iteration's mini-batch
     * @param next the following iteration's mini-batch, or nullptr on
     *        the final iteration; only LazyDP consumes it (lookahead)
     * @param out prepared-state buffer from makePrepared()
     * @param exec execution context (prepare must be exec-invariant:
     *        the pipeline runs it serially, the inline path in parallel)
     * @param timer stage-attribution sink (under the pipeline this is a
     *        private timer merged into the main one after the overlap)
     */
    virtual void
    prepare(std::uint64_t iter, const MiniBatch &cur,
            const MiniBatch *next, PreparedStep &out, ExecContext &exec,
            StageTimer &timer)
    {
        (void)cur;
        (void)next;
        (void)exec;
        (void)timer;
        out.iter = iter;
    }

    /**
     * Stage 2 of an iteration: forward/backward, clipping, and the
     * model update, consuming @p prepared (which must hold this
     * iteration's prepare output).
     *
     * @return the batch training loss (pre-update)
     */
    virtual double apply(std::uint64_t iter, const MiniBatch &cur,
                         PreparedStep &prepared, ExecContext &exec,
                         StageTimer &timer) = 0;

    /**
     * Execute one full training iteration: prepare() immediately
     * followed by apply() on the calling thread. This is the serial
     * (non-pipelined) schedule; iterations are numbered from 1 by the
     * caller, monotonically.
     */
    double step(std::uint64_t iter, const MiniBatch &cur,
                const MiniBatch *next, ExecContext &exec,
                StageTimer &timer);

    /**
     * Complete any deferred work after the final step so the model
     * reaches its releasable state (LazyDP flushes all pending noise
     * here; eager algorithms need nothing).
     *
     * @param last_iter id of the last executed iteration
     * @param exec execution context for the flush sweep
     * @param timer stage-attribution sink
     */
    virtual void
    finalize(std::uint64_t last_iter, ExecContext &exec,
             StageTimer &timer)
    {
        (void)last_iter;
        (void)exec;
        (void)timer;
    }

    /**
     * Lookahead hook for out-of-core (tiered) tables: submit async
     * warm tasks for the embedding rows iteration @p prep (or, engines
     * without prepared lookahead state, batch @p next) will touch, so
     * their cold pages are OS-page-cache-hot before apply() promotes
     * them. Called by the Trainer right after prepare(i+1) -- from the
     * pipeline lane under --pipeline, from the training thread in the
     * serial schedule -- and must therefore only submit work (via
     * EmbeddingTable::warmRowsAsync), never touch model weights or
     * residency state.
     *
     * Default: no-op. Engines whose table update is sparse (SGD, EANA,
     * LazyDP) override; the dense engines (DP-SGD B/R/F) keep the
     * no-op -- their update streams every row with write-through, so
     * warming would only pollute the page cache.
     *
     * @param next the batch the NEXT apply will consume
     * @param prep that apply's prepared state (nullptr in the serial
     *        schedule before prepare has run; engines must cope)
     * @param pool lane provider for the warm tasks (may be null)
     */
    virtual void
    warmTier(const MiniBatch &next, const PreparedStep *prep,
             ThreadPool *pool)
    {
        (void)next;
        (void)prep;
        (void)pool;
    }

    /**
     * Ask the engine to export its dirty-row set (the rows each apply
     * mutates) into a page-granular DirtyRowTracker, enabling
     * O(dirty rows) delta snapshot publishing. Engines whose table
     * update is sparse (SGD, EANA, LazyDP -- the merged sparse update
     * IS the dirty set) override and return true; engines that update
     * every row every iteration (DP-SGD B/R/F) keep the default false
     * and delta stores fall back to copying every page.
     *
     * Once enabled, the tracker marks on every subsequent apply();
     * the publish hook consumes and resets it.
     *
     * @param page_rows the consuming store's page size
     * @return true when this engine tracks dirty rows
     */
    virtual bool
    enableDirtyTracking(std::size_t page_rows)
    {
        (void)page_rows;
        return false;
    }

    /** @return the dirty tracker, or nullptr when not enabled. */
    DirtyRowTracker *dirtyTracker() { return dirty_.get(); }

  protected:
    /** Page bitmap filled by apply()/finalize() once enabled. */
    std::unique_ptr<DirtyRowTracker> dirty_;

  private:
    std::unique_ptr<PreparedStep> stepScratch_; //!< step()'s buffer
};

} // namespace lazydp

#endif // LAZYDP_TRAIN_ALGORITHM_H
