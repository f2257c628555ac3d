#include "core/lazydp.h"

#include <algorithm>
#include <vector>
#include <cmath>

#include "common/macros.h"
#include "kernels/kernel_registry.h"
#include "rng/xoshiro.h"

namespace lazydp {

LazyDpAlgorithm::LazyDpAlgorithm(DlrmModel &model, const TrainHyper &hyper,
                                 bool use_ans)
    : DpEngineBase(model, hyper),
      useAns_(use_ans),
      history_([&] {
          std::vector<std::uint64_t> rows(model.config().numTables);
          for (std::size_t t = 0; t < rows.size(); ++t)
              rows[t] = model.config().rowsForTable(t);
          return rows;
      }())
{
    if (hyper.weightDecay != 0.0f) {
        std::vector<std::uint64_t> rows(model.config().numTables);
        for (std::size_t t = 0; t < rows.size(); ++t)
            rows[t] = model.config().rowsForTable(t);
        decayed_ = std::make_unique<HistoryTable>(rows);
    }
}

void
LazyDpAlgorithm::prepare(std::uint64_t iter, const MiniBatch &cur,
                         const MiniBatch *next, PreparedStep &out_base,
                         ExecContext &exec, StageTimer &timer)
{
    auto &out = static_cast<LazyDpPrepared &>(out_base);
    out.iter = iter;
    out.tables.resize(model_.config().numTables);
    for (std::size_t t = 0; t < out.tables.size(); ++t)
        prepareTable(iter, t, cur, next, out.tables[t], exec, timer);
}

void
LazyDpAlgorithm::prepareTable(std::uint64_t iter, std::size_t t,
                              const MiniBatch &cur, const MiniBatch *next,
                              LazyDpPrepared::TableState &pt,
                              ExecContext &exec, StageTimer &timer)
{
    // Rows per shard for the row-parallel noise fill: small enough to
    // spread a few thousand touched rows across a pool, large enough to
    // amortize dispatch. Fixed, so shard boundaries never depend on the
    // thread count.
    constexpr std::size_t kRowGrain = 64;
    const std::size_t dim = model_.tables()[t].dim();
    const auto table_id = static_cast<std::uint32_t>(t);

    // LazyDP bookkeeping (the 15% overhead of Figure 11): deduplicate
    // the next iteration's accesses, derive delayed-update counts from
    // the HistoryTable and renew it (Algorithm 1 lines 11-16).
    timer.start(Stage::LazyOverhead);
    if (next != nullptr) {
        // Sub-timed for the Figure 11 overhead breakdown: (1) dedup of
        // the next batch's indices, (2) HistoryTable read + delay
        // derivation (the ANS stddev inputs), (3) HistoryTable renewal.
        WallTimer sub;
        uniqueRows(next->tableIndices(t), pt.nextUnique);
        overhead_.dedupSeconds += sub.seconds();
        sub.reset();
        history_.delays(t, pt.nextUnique, iter, delays_);
        if (decayed_ != nullptr) {
            decayed_->delays(t, pt.nextUnique, iter, pt.decayDelays);
        }
        overhead_.historyReadSeconds += sub.seconds();
        sub.reset();
        history_.renewAll(t, pt.nextUnique, iter);
        if (decayed_ != nullptr)
            decayed_->renewAll(t, pt.nextUnique, iter);
        overhead_.historyWriteSeconds += sub.seconds();
    } else {
        pt.nextUnique.clear();
        delays_.clear();
        pt.decayDelays.clear();
    }

    // Deferred-decay bookkeeping for the rows accessed THIS iteration
    // but not about to be noise-flushed: their single-step decay is
    // read and recorded here so apply() never touches the decay table
    // (prepare owns all History/decay state -- the pipeline-safety
    // invariant). The coalesced gradient's row list equals the sorted
    // unique current-batch indices, so curDecaySteps indexes align
    // with the SparseGrad built in apply().
    if (decayed_ != nullptr) {
        uniqueRows(cur.tableIndices(t), curUnique_);
        pt.curDecaySteps.assign(curUnique_.size(), 0);
        for (std::size_t i = 0; i < curUnique_.size(); ++i) {
            const std::uint32_t row = curUnique_[i];
            if (std::binary_search(pt.nextUnique.begin(),
                                   pt.nextUnique.end(), row))
                continue; // decay covered by decayDelays in apply()
            pt.curDecaySteps[i] = static_cast<std::uint32_t>(
                iter - decayed_->lastNoised(t, row));
            decayed_->renew(t, row, iter);
        }
    }
    timer.stop();

    // Noise sampling for ONLY the rows about to be accessed
    // (Algorithm 1 lines 17-18 / procedure NoiseSampling).
    timer.start(Stage::NoiseSampling);
    if (!pt.nextUnique.empty()) {
        if (pt.noiseVals.rows() < pt.nextUnique.size() ||
            pt.noiseVals.cols() != dim) {
            pt.noiseVals.resize(pt.nextUnique.size(), dim);
        }
        const float sigma = noiseStddev();
        // Sharded by destination row: every row's draws are keyed by
        // (iteration, table, row), so any shard order -- or the
        // pipeline's serial execution -- yields the same values (the
        // paper's ANS compute bottleneck, spread across cores).
        parallelForShards(
            exec, pt.nextUnique.size(), kRowGrain,
            [&](std::size_t, std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                    float *dst = pt.noiseVals.data() + i * dim;
                    std::fill(dst, dst + dim, 0.0f);
                    if (delays_[i] == 0)
                        continue; // noised this very iteration already
                    const std::uint64_t from = iter - delays_[i] + 1;
                    if (decayed_ == nullptr) {
                        if (useAns_) {
                            noise_.aggregatedRowNoise(
                                from, iter, table_id, pt.nextUnique[i],
                                sigma, 1.0f, dst, dim);
                        } else {
                            noise_.accumulateRowNoise(
                                from, iter, table_id, pt.nextUnique[i],
                                sigma, 1.0f, dst, dim);
                        }
                    } else {
                        // Deferred decay: pending noises pick up the
                        // geometric weights an eager engine would have
                        // applied.
                        const float alpha = decayAlpha();
                        if (useAns_) {
                            noise_.aggregatedGeometricRowNoise(
                                from, iter, table_id, pt.nextUnique[i],
                                alpha, sigma, 1.0f, dst, dim);
                        } else {
                            noise_.geometricRowNoise(
                                from, iter, table_id, pt.nextUnique[i],
                                alpha, sigma, 1.0f, dst, dim);
                        }
                    }
                }
            });
    }
    timer.stop();
}

double
LazyDpAlgorithm::apply(std::uint64_t iter, const MiniBatch &cur,
                       PreparedStep &prepared, ExecContext &exec,
                       StageTimer &timer)
{
    auto &prep = static_cast<LazyDpPrepared &>(prepared);
    LAZYDP_ASSERT(prep.iter == iter, "prepared state is for another iter");
    const std::size_t batch = cur.batchSize;
    lastBatchSize_ = batch;

    // Lot-sharded clipping machinery identical to DP-SGD(F): per shard,
    // a ghost-norm pass then a reweighted per-batch backward
    // (Algorithm 1 lines 8-10), tree-reduced before the sparse update.
    const double loss = shardedBackward(iter, cur, exec, timer);

    for (std::size_t t = 0; t < model_.config().numTables; ++t)
        applyTableUpdate(iter, t, cur, prep.tables[t], batch, exec,
                         timer);

    // Dense MLP layers: identical DP protection to DP-SGD(F).
    noisyMlpUpdate(iter, batch, exec, timer);
    return loss;
}

void
LazyDpAlgorithm::applyTableUpdate(std::uint64_t iter, std::size_t t,
                                  const MiniBatch &cur,
                                  LazyDpPrepared::TableState &pt,
                                  std::size_t batch, ExecContext &exec,
                                  StageTimer &timer)
{
    (void)iter;
    constexpr std::size_t kRowGrain = 64;
    EmbeddingTable &tbl = model_.tables()[t];
    const std::size_t dim = tbl.dim();
    const KernelTable &kt = kernels();

    // Coalesce this iteration's clipped sparse gradient from the
    // lot-wide pooled gradients gathered out of the shard workspaces.
    timer.start(Stage::GradCoalesce);
    SparseGrad &grad = sparseGrads_[t];
    model_.embeddingBackwardFrom(cur, t, lotEmbGrad_[t], grad);
    timer.stop();

    // Merge sparse gradient and sparse (prepared) noise into one update
    // list (Algorithm 1 lines 19-20). Both row lists are sorted. The
    // serial two-pointer walk only builds row ids + source indices; the
    // value materialization and the model update below are then
    // row-parallel.
    timer.start(Stage::NoisyGradGen);
    mergedRows_.clear();
    mergedRows_.reserve(grad.rows.size() + pt.nextUnique.size());
    mergedGradIdx_.clear();
    mergedNextIdx_.clear();
    {
        std::size_t gi = 0, ni = 0;
        while (gi < grad.rows.size() || ni < pt.nextUnique.size()) {
            std::uint32_t row;
            if (ni >= pt.nextUnique.size() ||
                (gi < grad.rows.size() &&
                 grad.rows[gi] <= pt.nextUnique[ni])) {
                row = grad.rows[gi];
            } else {
                row = pt.nextUnique[ni];
            }
            mergedRows_.push_back(row);
            if (gi < grad.rows.size() && grad.rows[gi] == row) {
                mergedGradIdx_.push_back(
                    static_cast<std::uint32_t>(gi));
                ++gi;
            } else {
                mergedGradIdx_.push_back(kNoSource);
            }
            if (ni < pt.nextUnique.size() && pt.nextUnique[ni] == row) {
                mergedNextIdx_.push_back(
                    static_cast<std::uint32_t>(ni));
                ++ni;
            } else {
                mergedNextIdx_.push_back(kNoSource);
            }
        }
    }
    if (mergedVals_.rows() < mergedRows_.size() ||
        mergedVals_.cols() != dim) {
        mergedVals_.resize(std::max<std::size_t>(mergedRows_.size(), 1),
                           dim);
    }
    parallelForShards(
        exec, mergedRows_.size(), kRowGrain,
        [&](std::size_t, std::size_t mlo, std::size_t mhi) {
            for (std::size_t m = mlo; m < mhi; ++m) {
                float *dst = mergedVals_.data() + m * dim;
                const std::uint32_t gi = mergedGradIdx_[m];
                const std::uint32_t ni = mergedNextIdx_[m];
                if (gi != kNoSource) {
                    std::memcpy(dst, grad.values.data() + gi * dim,
                                dim * sizeof(float));
                    if (ni != kNoSource) {
                        kt.add(dst, dst,
                               pt.noiseVals.data() + ni * dim, dim);
                    }
                } else {
                    std::memcpy(dst, pt.noiseVals.data() + ni * dim,
                                dim * sizeof(float));
                }
            }
        });
    timer.stop();

    // Sparse model update (Algorithm 1 lines 21-25): orders of
    // magnitude less memory traffic than the dense eager update.
    // Merged rows are unique, so shards touch disjoint weight rows.
    timer.start(Stage::NoisyGradUpdate);
    if (dirty_ != nullptr)
        dirty_->markRows(t, mergedRows_);
    const float step_scale = hyper_.lr / normDenominator(batch);
    // Out-of-core tables: promote the whole merged row set before the
    // row-parallel update (residency mutations are training-thread
    // only). Steady state finds the pages already hot -- warmed by the
    // lookahead warm task fed from prepare()'s nextUnique.
    if (tbl.tiered())
        tbl.ensureResident(mergedRows_);
    if (decayed_ == nullptr) {
        if (tbl.tiered()) {
            // Per-row axpy through the page table: both scatter
            // backends are exactly this per-row loop, so the update is
            // bit-identical to the dense scatter branch below.
            parallelForShards(
                exec, mergedRows_.size(), kRowGrain,
                [&](std::size_t, std::size_t mlo, std::size_t mhi) {
                    for (std::size_t m = mlo; m < mhi; ++m) {
                        kt.axpy(tbl.rowPtr(mergedRows_[m]),
                                mergedVals_.data() + m * dim, dim,
                                -step_scale);
                    }
                });
        } else {
            // Merged rows are unique and sorted, so each shard hands
            // its sub-range straight to the no-alias scatter kernel.
            parallelForShards(
                exec, mergedRows_.size(), kRowGrain,
                [&](std::size_t, std::size_t mlo, std::size_t mhi) {
                    kt.scatterAxpyRows(tbl.weights().data(),
                                       mergedRows_.data() + mlo,
                                       mergedVals_.data() + mlo * dim,
                                       mhi - mlo, dim, -step_scale);
                });
        }
    } else {
        // With deferred decay: each merged row is first scaled by
        // alpha^(pending decay steps), then receives its (already
        // geometrically weighted) noise plus this iteration's gradient.
        // All decay-step counts were derived (and the decay table
        // renewed) in prepare(); a grad-only row's single-step decay
        // happens here while the gradient itself is not decayed,
        // matching the eager ordering w <- a*w - lr/B*(g+n).
        // curDecaySteps was indexed by prepare's own dedup of cur,
        // which must coincide with the coalesced gradient's row list.
        LAZYDP_ASSERT(pt.curDecaySteps.size() == grad.rows.size(),
                      "prepared decay steps diverge from gradient rows");
        const float alpha = decayAlpha();
        parallelForShards(
            exec, mergedRows_.size(), kRowGrain,
            [&](std::size_t, std::size_t mlo, std::size_t mhi) {
                for (std::size_t m = mlo; m < mhi; ++m) {
                    const std::uint32_t row = mergedRows_[m];
                    const bool in_next = mergedNextIdx_[m] != kNoSource;
                    const bool in_grad = mergedGradIdx_[m] != kNoSource;
                    std::uint64_t decay_steps =
                        in_next ? pt.decayDelays[mergedNextIdx_[m]] : 0;
                    if (in_grad && !in_next)
                        decay_steps = pt.curDecaySteps[mergedGradIdx_[m]];
                    if (decay_steps > 0) {
                        kt.scale(
                            tbl.rowPtr(row), dim,
                            std::pow(alpha, static_cast<float>(
                                                decay_steps)));
                    }
                    kt.axpy(tbl.rowPtr(row),
                            mergedVals_.data() + m * dim, dim,
                            -step_scale);
                }
            });
    }
    timer.stop();
}

void
LazyDpAlgorithm::warmTier(const MiniBatch &next, const PreparedStep *prep,
                          ThreadPool *pool)
{
    if (!model_.tiered() || pool == nullptr)
        return;
    const auto *lp = static_cast<const LazyDpPrepared *>(prep);
    for (std::size_t t = 0; t < model_.config().numTables; ++t) {
        const auto idx = next.tableIndices(t);
        std::vector<std::uint32_t> rows(idx.begin(), idx.end());
        if (lp != nullptr && t < lp->tables.size()) {
            const auto &nu = lp->tables[t].nextUnique;
            rows.insert(rows.end(), nu.begin(), nu.end());
        }
        model_.tables()[t].warmRowsAsync(pool, std::move(rows));
    }
}

bool
LazyDpAlgorithm::enableDirtyTracking(std::size_t page_rows)
{
    if (dirty_ == nullptr || dirty_->pageRows() != page_rows)
        dirty_ = DirtyRowTracker::forModel(model_.config(), page_rows);
    return true;
}

void
LazyDpAlgorithm::finalize(std::uint64_t last_iter, ExecContext &exec,
                          StageTimer &timer)
{
    if (last_iter == 0)
        return;
    // The dense catch-up sweep below touches every row of every table
    // -- outside the sparse oracle's vocabulary, so the whole model is
    // dirty for the next publish.
    if (dirty_ != nullptr)
        dirty_->markAllDirty();
    // One dense catch-up sweep: every row receives its pending noise so
    // the released model equals the eager DP-SGD model. Amortized over
    // the whole training run; attributed to Else (not a per-iteration
    // stage of the paper's figures). Sharded by embedding row: each
    // row's flush touches only its own weights and HistoryTable entry.
    timer.start(Stage::Else);
    const float sigma = noiseStddev();
    // The per-iteration noise scaling used throughout training.
    const float step_scale =
        hyper_.lr /
        normDenominator(lastBatchSize_ == 0 ? 1 : lastBatchSize_);
    const KernelTable &kt = kernels();
    for (std::size_t t = 0; t < model_.config().numTables; ++t) {
        EmbeddingTable &tbl = model_.tables()[t];
        const std::size_t dim = tbl.dim();
        const auto table_id = static_cast<std::uint32_t>(t);
        parallelForShards(
            exec, tbl.rows(), 4096,
            [&](std::size_t, std::size_t rlo, std::size_t rhi) {
                for (std::uint64_t r = rlo; r < rhi; ++r) {
                    const std::uint32_t last = history_.lastNoised(t, r);
                    if (decayed_ != nullptr) {
                        const std::uint32_t last_decay =
                            decayed_->lastNoised(t, r);
                        if (last_decay < last_iter) {
                            kt.scale(
                                tbl.rowPtr(r), dim,
                                std::pow(decayAlpha(),
                                         static_cast<float>(
                                             last_iter - last_decay)));
                            decayed_->renew(t, r, last_iter);
                        }
                    }
                    if (last >= last_iter)
                        continue;
                    if (decayed_ == nullptr) {
                        if (useAns_) {
                            noise_.aggregatedRowNoise(
                                last + 1, last_iter, table_id, r, sigma,
                                -step_scale, tbl.rowPtr(r), dim);
                        } else {
                            noise_.accumulateRowNoise(
                                last + 1, last_iter, table_id, r, sigma,
                                -step_scale, tbl.rowPtr(r), dim);
                        }
                    } else {
                        if (useAns_) {
                            noise_.aggregatedGeometricRowNoise(
                                last + 1, last_iter, table_id, r,
                                decayAlpha(), sigma, -step_scale,
                                tbl.rowPtr(r), dim);
                        } else {
                            noise_.geometricRowNoise(
                                last + 1, last_iter, table_id, r,
                                decayAlpha(), sigma, -step_scale,
                                tbl.rowPtr(r), dim);
                        }
                    }
                    history_.renew(t, r, last_iter);
                }
            });
    }
    timer.stop();
}

void
LazyDpAlgorithm::warmStartHistory(std::uint64_t start_iter,
                                  double expected_delay,
                                  std::uint64_t seed)
{
    LAZYDP_ASSERT(expected_delay >= 1.0, "expected delay below one");
    Xoshiro256 rng(seed);
    const double p = 1.0 / expected_delay;
    const double log1mp = std::log1p(-std::min(p, 0.999999));
    for (std::size_t t = 0; t < history_.numTables(); ++t) {
        for (std::uint64_t r = 0; r < history_.rowsForTable(t); ++r) {
            // age ~ 1 + Geometric(p): stationary gap since the last
            // lazy noise flush under uniform accesses
            const double u = std::max(rng.nextDouble(), 1e-12);
            auto age = static_cast<std::uint64_t>(
                           1.0 + std::log(u) / log1mp);
            age = std::min(age, start_iter);
            history_.renew(t, r, start_iter - age);
        }
    }
}

std::uint64_t
LazyDpAlgorithm::metadataBytes() const
{
    return history_.bytes();
}

std::unique_ptr<LazyDpAlgorithm>
makePrivate(DlrmModel &model, const LazyDpOptions &options)
{
    TrainHyper hyper;
    hyper.lr = options.lr;
    hyper.clipNorm = options.maxGradientNorm;
    hyper.noiseMultiplier = options.noiseMultiplier;
    hyper.noiseSeed = options.noiseSeed;
    hyper.lotSize = options.lotSize;
    return std::make_unique<LazyDpAlgorithm>(model, hyper,
                                             options.useAns);
}

} // namespace lazydp
