/**
 * @file
 * Linear layers and MLP stacks with the hooks DP-SGD needs.
 *
 * Every pass runs against a caller-owned MlpWorkspace: the forward
 * keeps each layer's input activations there, and the backward reads
 * them back to derive batch gradients, per-example weight gradients
 * (DP-SGD(B)), per-example gradient *norms* without materialization
 * (ghost norms, DP-SGD(F)), or reweighted batch gradients (DP-SGD(R)).
 * The weights are only read, so several lot shards, each with its own
 * workspace, may run passes concurrently.
 */

#ifndef LAZYDP_NN_MLP_H
#define LAZYDP_NN_MLP_H

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace lazydp {

/**
 * Materialized per-example gradients of an MLP (one entry per layer).
 *
 * This is DP-SGD(B)'s memory-capacity burden: batch-size-times larger
 * than the model itself (Section 2.5 of the paper).
 */
struct PerExampleGrads
{
    std::vector<Tensor> w; //!< per layer: (batch x out*in), row e = vec(dW_e)
    std::vector<Tensor> b; //!< per layer: (batch x out), row e = db_e

    /** @return total bytes held (for OOM accounting in benches). */
    std::uint64_t bytes() const;
};

/**
 * Activation / scratch state of one forward+backward pass through an
 * Mlp. Being caller-owned, it lets several lot shards run
 * forward/backward CONCURRENTLY against the same (read-only) weights --
 * the data-parallel replica path. Reusing one across iterations keeps
 * its buffers (backwardNormsOnly's per-example scratch is ~1 GB at
 * batch 2048) allocated.
 */
struct MlpWorkspace
{
    std::vector<Tensor> xCache;      //!< per layer: forward input copy
    std::vector<Tensor> zCache;      //!< per layer: (post-ReLU) output
    std::vector<Tensor> gradScratch; //!< inter-layer gradient buffers
    // Per-example materialization scratch for backwardNormsOnly.
    Tensor normW;
    Tensor normB;
};

/**
 * Caller-owned per-layer batch-gradient sums (sum over the examples the
 * caller ran backward on). One lot shard fills one of these; the fixed
 * tree reduction then merges kLotShards of them into the layers' own
 * gradient tensors.
 */
struct MlpGradSums
{
    std::vector<Tensor> w; //!< per layer: (out x in) summed weight grads
    std::vector<Tensor> b; //!< per layer: (1 x out) summed bias grads

    /** Size both vectors to @p mlp 's layer shapes (idempotent). */
    void ensureShape(const class Mlp &mlp);

    /** Zero every tensor (used for empty lot shards). */
    void zero();
};

/** Fully connected layer y = x W^T + b. */
class LinearLayer
{
  public:
    /**
     * @param in input features
     * @param out output features
     */
    LinearLayer(std::size_t in, std::size_t out);

    /** Kaiming-uniform style weight init. */
    void initUniform(std::uint64_t seed);

    /**
     * y = x W^T + b; copies x into the caller's @p x_cache for the
     * backward. Const, so shards may run it concurrently against
     * shared weights.
     */
    void forwardInto(const Tensor &x, Tensor &y, Tensor &x_cache,
                     ExecContext &exec) const;

    /**
     * Per-batch backward from the input @p x_cache of the matching
     * forwardInto (mean over examples is NOT applied here; callers
     * divide once).
     *
     * @param d_y (batch x out) upstream gradient
     * @param d_x (batch x in) output: gradient wrt input (nullptr to
     *        skip input-gradient derivation for the first layer)
     * @param w_grad (out x in) summed weight gradient, @p b_grad
     *        (1 x out) summed bias gradient; both nullptr to skip
     *        parameter gradients
     *
     * DP-SGD(R)'s per-example reweighting is applied upstream, by
     * scaling the rows of the loss gradient, so plain backward here
     * yields the reweighted sums for every parameter including the
     * embedding tables. Const for the same reason as forwardInto.
     */
    void backwardFrom(const Tensor &d_y, const Tensor &x_cache,
                      Tensor *d_x, Tensor *w_grad, Tensor *b_grad,
                      ExecContext &exec) const;

    /**
     * Ghost norms: out[e] += ||dW_e||_F^2 + ||db_e||^2 computed as
     * ||g_e||^2 * ||a_e||^2 + ||g_e||^2 without forming dW_e
     * (exact for linear layers; Denison et al.).
     *
     * @param d_y (batch x out) upstream gradient
     * @param x_cache (batch x in) input of the matching forwardInto
     * @param out accumulator, length batch
     */
    void accumulateGhostNormSqFrom(const Tensor &d_y,
                                   const Tensor &x_cache,
                                   std::vector<double> &out) const;

    /**
     * Materialized per-example gradients (DP-SGD(B) path):
     * dW_e = g_e (x) a_e, db_e = g_e.
     *
     * @param d_y (batch x out) upstream gradient
     * @param x_cache (batch x in) input of the matching forwardInto
     * @param w_grads output (batch x (out*in))
     * @param b_grads output (batch x out)
     */
    void perExampleGradsFrom(const Tensor &d_y, const Tensor &x_cache,
                             Tensor &w_grads, Tensor &b_grads,
                             ExecContext &exec) const;

    /** w = decay*w - lr*w_grad; b = decay*b - lr*b_grad. */
    void apply(float lr, float decay = 1.0f);

    Tensor &weightGrad() { return w_grad_; }
    Tensor &biasGrad() { return b_grad_; }
    const Tensor &weightGrad() const { return w_grad_; }
    const Tensor &biasGrad() const { return b_grad_; }

    Tensor &weight() { return w_; }
    const Tensor &weight() const { return w_; }
    Tensor &bias() { return b_; }
    const Tensor &bias() const { return b_; }

    std::size_t inDim() const { return in_; }
    std::size_t outDim() const { return out_; }

    /** @return number of trainable parameters. */
    std::size_t paramCount() const { return in_ * out_ + out_; }

  private:
    std::size_t in_;
    std::size_t out_;
    Tensor w_;       // (out x in)
    Tensor b_;       // (1 x out)
    Tensor w_grad_;  // (out x in)
    Tensor b_grad_;  // (1 x out)
};

/** MLP: alternating LinearLayer and ReLU (no activation after last). */
class Mlp
{
  public:
    /**
     * @param dims layer widths, e.g. {13, 512, 256, 128}
     * @param seed weight-init seed
     */
    Mlp(const std::vector<std::size_t> &dims, std::uint64_t seed);

    /**
     * Forward through all layers; activations cache into @p ws. Const
     * -- several lot shards may run concurrently, each with its own
     * workspace, against the shared weights.
     */
    void forward(const Tensor &x, Tensor &y, MlpWorkspace &ws,
                 ExecContext &exec) const;

    /**
     * Backward through all layers from the caches @p ws holds from the
     * matching forward. The layers' own gradient tensors are not
     * touched, so concurrent shard backwards never race.
     *
     * @param d_y upstream gradient of the MLP output
     * @param d_x gradient wrt the MLP input (nullptr to skip)
     * @param ghost_norm_sq when non-null, each layer accumulates its
     *        per-example squared gradient norms into it (DP-SGD(F))
     * @param sums per-layer batch-gradient sums (caller-owned; nullptr
     *        for activation gradients only)
     */
    void backward(const Tensor &d_y, Tensor *d_x,
                  std::vector<double> *ghost_norm_sq, MlpWorkspace &ws,
                  MlpGradSums *sums, ExecContext &exec) const;

    /**
     * DP-SGD(R)'s first pass: walk the layers, *materialize* each
     * layer's per-example gradients into a reusable scratch pair just
     * long enough to accumulate per-example squared norms, then discard
     * (Lee & Kifer). Batch parameter gradients are not produced.
     *
     * @param d_y upstream gradient of the MLP output
     * @param d_x gradient wrt the MLP input (nullptr to skip)
     * @param norm_sq accumulator, length batch
     * @param ws caches of the matching forward; also holds the scratch
     */
    void backwardNormsOnly(const Tensor &d_y, Tensor *d_x,
                           std::vector<double> &norm_sq, MlpWorkspace &ws,
                           ExecContext &exec) const;

    /**
     * Backward that additionally materializes per-example gradients of
     * every layer (DP-SGD(B)) from the caches @p ws holds. Batch
     * gradients are not produced.
     */
    void backwardPerExample(const Tensor &d_y, Tensor *d_x,
                            PerExampleGrads &grads, MlpWorkspace &ws,
                            ExecContext &exec) const;

    /** SGD step on all layers (optional multiplicative decay). */
    void apply(float lr, float decay = 1.0f);

    /**
     * Overwrite every layer's weights and biases with @p other 's
     * (shapes must match). Gradients are NOT copied -- this
     * is the snapshot-publication primitive, which only needs the
     * parameters a reader's forward pass consumes.
     */
    void copyWeightsFrom(const Mlp &other);

    /** @return the layers (DP engines iterate them). */
    std::vector<LinearLayer> &layers() { return layers_; }
    const std::vector<LinearLayer> &layers() const { return layers_; }

    std::size_t inDim() const { return dims_.front(); }
    std::size_t outDim() const { return dims_.back(); }

    /** @return total trainable parameters. */
    std::size_t paramCount() const;

  private:
    /** Size @p ws 's per-layer vectors to this stack (idempotent). */
    void ensureWorkspace(MlpWorkspace &ws) const;

    /**
     * Shared backward skeleton: walks layers in reverse, applying ReLU
     * masks, invoking @p layer_hook (per-batch or per-example gradient
     * derivation) for each layer.
     */
    template <typename LayerHook>
    void backwardImpl(const Tensor &d_y, Tensor *d_x, MlpWorkspace &ws,
                      LayerHook &&hook) const;

    std::vector<std::size_t> dims_;
    std::vector<LinearLayer> layers_;
};

} // namespace lazydp

#endif // LAZYDP_NN_MLP_H
