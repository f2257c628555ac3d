#include "nn/mlp.h"

#include <cmath>

#include "common/macros.h"
#include "kernels/kernel_registry.h"
#include "rng/xoshiro.h"
#include "tensor/matmul.h"

namespace lazydp {

std::uint64_t
PerExampleGrads::bytes() const
{
    std::uint64_t total = 0;
    for (const auto &t : w)
        total += t.size() * sizeof(float);
    for (const auto &t : b)
        total += t.size() * sizeof(float);
    return total;
}

void
MlpGradSums::ensureShape(const Mlp &mlp)
{
    const auto &layers = mlp.layers();
    w.resize(layers.size());
    b.resize(layers.size());
    for (std::size_t li = 0; li < layers.size(); ++li) {
        if (w[li].rows() != layers[li].outDim() ||
            w[li].cols() != layers[li].inDim())
            w[li].resize(layers[li].outDim(), layers[li].inDim());
        if (b[li].rows() != 1 || b[li].cols() != layers[li].outDim())
            b[li].resize(1, layers[li].outDim());
    }
}

void
MlpGradSums::zero()
{
    for (auto &t : w)
        t.zero();
    for (auto &t : b)
        t.zero();
}

LinearLayer::LinearLayer(std::size_t in, std::size_t out)
    : in_(in), out_(out), w_(out, in), b_(1, out), w_grad_(out, in),
      b_grad_(1, out)
{
    LAZYDP_ASSERT(in > 0 && out > 0, "degenerate linear layer");
}

void
LinearLayer::initUniform(std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    const float bound = 1.0f / std::sqrt(static_cast<float>(in_));
    for (std::size_t i = 0; i < w_.size(); ++i)
        w_.data()[i] = (2.0f * rng.nextFloat() - 1.0f) * bound;
    for (std::size_t i = 0; i < b_.size(); ++i)
        b_.data()[i] = (2.0f * rng.nextFloat() - 1.0f) * bound;
}

void
LinearLayer::forward(const Tensor &x, Tensor &y, ExecContext &exec)
{
    forwardInto(x, y, x_cache_, exec);
}

void
LinearLayer::forwardInto(const Tensor &x, Tensor &y, Tensor &x_cache,
                         ExecContext &exec) const
{
    LAZYDP_ASSERT(x.cols() == in_, "linear forward input width");
    if (x_cache.rows() != x.rows() || x_cache.cols() != x.cols())
        x_cache.resize(x.rows(), x.cols());
    x_cache.copyFrom(x);
    matmulABt(x, w_, y, false, exec);
    addRowBias(y, b_, exec);
}

void
LinearLayer::backward(const Tensor &d_y, Tensor *d_x,
                      bool skip_param_grads, ExecContext &exec)
{
    backwardFrom(d_y, x_cache_, d_x,
                 skip_param_grads ? nullptr : &w_grad_,
                 skip_param_grads ? nullptr : &b_grad_, exec);
}

void
LinearLayer::backwardFrom(const Tensor &d_y, const Tensor &x_cache,
                          Tensor *d_x, Tensor *w_grad, Tensor *b_grad,
                          ExecContext &exec) const
{
    const std::size_t batch = d_y.rows();
    LAZYDP_ASSERT(d_y.cols() == out_, "linear backward grad width");
    LAZYDP_ASSERT(x_cache.rows() == batch,
                  "backward batch != cached forward batch");

    if (d_x != nullptr) {
        LAZYDP_ASSERT(d_x->rows() == batch && d_x->cols() == in_,
                      "linear d_x shape");
        // dX = dY * W
        matmulAB(d_y, w_, *d_x, false, exec);
    }

    if (w_grad == nullptr)
        return;
    LAZYDP_ASSERT(b_grad != nullptr, "weight/bias grads travel together");
    // dW = dY^T X, db = column sums of dY
    matmulAtB(d_y, x_cache, *w_grad, false, exec);
    reduceRows(d_y, *b_grad, exec);
}

void
LinearLayer::accumulateGhostNormSq(const Tensor &d_y,
                                   std::vector<double> &out) const
{
    accumulateGhostNormSqFrom(d_y, x_cache_, out);
}

void
LinearLayer::accumulateGhostNormSqFrom(const Tensor &d_y,
                                       const Tensor &x_cache,
                                       std::vector<double> &out) const
{
    const std::size_t batch = d_y.rows();
    LAZYDP_ASSERT(out.size() == batch, "ghost-norm accumulator length");
    LAZYDP_ASSERT(x_cache.rows() == batch, "ghost norm needs forward cache");
    const KernelTable &kt = kernels();
    for (std::size_t e = 0; e < batch; ++e) {
        const double g2 =
            kt.squaredNorm(d_y.data() + e * out_, out_);
        const double a2 =
            kt.squaredNorm(x_cache.data() + e * in_, in_);
        out[e] += g2 * a2 + g2; // weight term + bias term
    }
}

void
LinearLayer::perExampleGrads(const Tensor &d_y, Tensor &w_grads,
                             Tensor &b_grads, ExecContext &exec) const
{
    perExampleGradsFrom(d_y, x_cache_, w_grads, b_grads, exec);
}

void
LinearLayer::perExampleGradsFrom(const Tensor &d_y, const Tensor &x_cache,
                                 Tensor &w_grads, Tensor &b_grads,
                                 ExecContext &exec) const
{
    const std::size_t batch = d_y.rows();
    LAZYDP_ASSERT(x_cache.rows() == batch,
                  "per-example grads need forward cache");
    w_grads.resizeNoShrink(batch, out_ * in_);
    b_grads.resizeNoShrink(batch, out_);

    parallelFor(exec, batch, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t e = lo; e < hi; ++e) {
            const float *g = d_y.data() + e * out_;
            const float *a = x_cache.data() + e * in_;
            float *wg = w_grads.data() + e * out_ * in_;
            for (std::size_t o = 0; o < out_; ++o) {
                // row o of dW_e = g[o] * a
                float *dst = wg + o * in_;
                const float go = g[o];
                for (std::size_t i = 0; i < in_; ++i)
                    dst[i] = go * a[i];
            }
            std::memcpy(b_grads.data() + e * out_, g,
                        out_ * sizeof(float));
        }
    });
}

void
LinearLayer::apply(float lr, float decay)
{
    const KernelTable &kt = kernels();
    if (decay == 1.0f) {
        kt.axpy(w_.data(), w_grad_.data(), w_.size(), -lr);
        kt.axpy(b_.data(), b_grad_.data(), b_.size(), -lr);
    } else {
        kt.axpby(w_.data(), w_grad_.data(), w_.size(), -lr, decay);
        kt.axpby(b_.data(), b_grad_.data(), b_.size(), -lr, decay);
    }
}

Mlp::Mlp(const std::vector<std::size_t> &dims, std::uint64_t seed)
    : dims_(dims)
{
    LAZYDP_ASSERT(dims.size() >= 2, "MLP needs at least one layer");
    layers_.reserve(dims.size() - 1);
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        layers_.emplace_back(dims[l], dims[l + 1]);
        layers_.back().initUniform(seed + 0x1000 * (l + 1));
    }
}

void
Mlp::ensureWorkspace(MlpWorkspace &ws) const
{
    if (ws.xCache.size() != layers_.size()) {
        ws.xCache.resize(layers_.size());
        ws.zCache.resize(layers_.size());
        ws.gradScratch.resize(layers_.size());
    }
}

void
Mlp::forward(const Tensor &x, Tensor &y, ExecContext &exec)
{
    static_cast<const Mlp &>(*this).forward(x, y, ws_, exec);
}

void
Mlp::forward(const Tensor &x, Tensor &y, MlpWorkspace &ws,
             ExecContext &exec) const
{
    LAZYDP_ASSERT(x.cols() == dims_.front(), "MLP input width");
    ensureWorkspace(ws);
    const std::size_t batch = x.rows();
    const KernelTable &kt = kernels();

    const Tensor *cur = &x;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        Tensor &z = ws.zCache[l];
        if (z.rows() != batch || z.cols() != layers_[l].outDim())
            z.resize(batch, layers_[l].outDim());
        layers_[l].forwardInto(*cur, z, ws.xCache[l], exec);
        if (l + 1 < layers_.size()) {
            // ReLU in place on a copy kept as the next layer's input;
            // we keep z pre-activation for the backward mask, so apply
            // ReLU into the next buffer.
            kt.reluForward(z.data(), z.data(), z.size());
        }
        cur = &z;
    }
    if (y.rows() != batch || y.cols() != dims_.back())
        y.resize(batch, dims_.back());
    y.copyFrom(ws.zCache.back());
}

template <typename LayerHook>
void
Mlp::backwardImpl(const Tensor &d_y, Tensor *d_x, MlpWorkspace &ws,
                  LayerHook &&hook) const
{
    const std::size_t batch = d_y.rows();
    LAZYDP_ASSERT(d_y.cols() == dims_.back(), "MLP upstream grad width");
    ensureWorkspace(ws);
    const KernelTable &kt = kernels();

    const Tensor *cur_grad = &d_y;
    for (std::size_t li = layers_.size(); li-- > 0;) {
        const LinearLayer &layer = layers_[li];
        Tensor *dst = nullptr;
        if (li > 0) {
            Tensor &scratch = ws.gradScratch[li];
            if (scratch.rows() != batch ||
                scratch.cols() != layer.inDim()) {
                scratch.resize(batch, layer.inDim());
            }
            dst = &scratch;
        } else {
            dst = d_x; // may be nullptr (skip input grads)
        }

        hook(li, *cur_grad, dst);

        if (li > 0) {
            // The scratch now holds gradients wrt the *post-ReLU*
            // activation of layer li-1; mask through the ReLU. The
            // cached z of layer li-1 already had ReLU applied in
            // place, and relu'(x) as a mask of (post-relu > 0) equals
            // the mask of (pre-relu > 0) except at exactly 0 where both
            // are 0 -- identical gradients.
            const Tensor &activated = ws.zCache[li - 1];
            kt.reluBackward(dst->data(), activated.data(), dst->data(),
                            dst->size());
            cur_grad = dst;
        }
    }
}

void
Mlp::backward(const Tensor &d_y, Tensor *d_x,
              std::vector<double> *ghost_norm_sq, bool skip_param_grads,
              ExecContext &exec)
{
    backward(d_y, d_x, ghost_norm_sq, skip_param_grads, ws_, exec);
}

void
Mlp::backward(const Tensor &d_y, Tensor *d_x,
              std::vector<double> *ghost_norm_sq, bool skip_param_grads,
              MlpWorkspace &ws, ExecContext &exec)
{
    backwardImpl(d_y, d_x, ws,
                 [&](std::size_t li, const Tensor &g, Tensor *dx) {
                     LinearLayer &layer = layers_[li];
                     if (ghost_norm_sq != nullptr)
                         layer.accumulateGhostNormSqFrom(
                             g, ws.xCache[li], *ghost_norm_sq);
                     layer.backwardFrom(
                         g, ws.xCache[li], dx,
                         skip_param_grads ? nullptr : &layer.weightGrad(),
                         skip_param_grads ? nullptr : &layer.biasGrad(),
                         exec);
                 });
}

void
Mlp::backward(const Tensor &d_y, Tensor *d_x,
              std::vector<double> *ghost_norm_sq, bool skip_param_grads,
              MlpWorkspace &ws, MlpGradSums *sums, ExecContext &exec) const
{
    if (!skip_param_grads) {
        LAZYDP_ASSERT(sums != nullptr,
                      "workspace backward needs caller-owned grad sums");
        sums->ensureShape(*this);
    }
    backwardImpl(d_y, d_x, ws,
                 [&](std::size_t li, const Tensor &g, Tensor *dx) {
                     const LinearLayer &layer = layers_[li];
                     if (ghost_norm_sq != nullptr)
                         layer.accumulateGhostNormSqFrom(
                             g, ws.xCache[li], *ghost_norm_sq);
                     layer.backwardFrom(
                         g, ws.xCache[li], dx,
                         skip_param_grads ? nullptr : &sums->w[li],
                         skip_param_grads ? nullptr : &sums->b[li], exec);
                 });
}

void
Mlp::backwardNormsOnly(const Tensor &d_y, Tensor *d_x,
                       std::vector<double> &norm_sq, ExecContext &exec)
{
    static_cast<const Mlp &>(*this).backwardNormsOnly(d_y, d_x, norm_sq,
                                                      ws_, exec);
}

void
Mlp::backwardNormsOnly(const Tensor &d_y, Tensor *d_x,
                       std::vector<double> &norm_sq, MlpWorkspace &ws,
                       ExecContext &exec) const
{
    const std::size_t batch = d_y.rows();
    LAZYDP_ASSERT(norm_sq.size() == batch, "norm accumulator length");
    const KernelTable &kt = kernels();
    backwardImpl(d_y, d_x, ws,
                 [&](std::size_t li, const Tensor &g, Tensor *dx) {
                     const LinearLayer &layer = layers_[li];
                     layer.perExampleGradsFrom(g, ws.xCache[li], ws.normW,
                                               ws.normB, exec);
                     parallelFor(exec, batch,
                                 [&](std::size_t lo, std::size_t hi) {
                         for (std::size_t e = lo; e < hi; ++e) {
                             norm_sq[e] += kt.squaredNorm(
                                 ws.normW.data() + e * ws.normW.cols(),
                                 ws.normW.cols());
                             norm_sq[e] += kt.squaredNorm(
                                 ws.normB.data() + e * ws.normB.cols(),
                                 ws.normB.cols());
                         }
                     });
                     if (dx != nullptr)
                         matmulAB(g, layer.weight(), *dx, false, exec);
                 });
}

void
Mlp::backwardPerExample(const Tensor &d_y, Tensor *d_x,
                        PerExampleGrads &grads, ExecContext &exec)
{
    static_cast<const Mlp &>(*this).backwardPerExample(d_y, d_x, grads,
                                                       ws_, exec);
}

void
Mlp::backwardPerExample(const Tensor &d_y, Tensor *d_x,
                        PerExampleGrads &grads, MlpWorkspace &ws,
                        ExecContext &exec) const
{
    grads.w.resize(layers_.size());
    grads.b.resize(layers_.size());
    backwardImpl(d_y, d_x, ws,
                 [&](std::size_t li, const Tensor &g, Tensor *dx) {
                     const LinearLayer &layer = layers_[li];
                     layer.perExampleGradsFrom(g, ws.xCache[li],
                                               grads.w[li], grads.b[li],
                                               exec);
                     // Input gradients still require the batch backward
                     // (dX = dY W); weight gradients are not needed here.
                     if (dx != nullptr)
                         matmulAB(g, layer.weight(), *dx, false, exec);
                 });
}

void
Mlp::apply(float lr, float decay)
{
    for (auto &layer : layers_)
        layer.apply(lr, decay);
}

void
Mlp::copyWeightsFrom(const Mlp &other)
{
    LAZYDP_ASSERT(layers_.size() == other.layers_.size(),
                  "copyWeightsFrom across different MLP stacks");
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        layers_[l].weight().copyFrom(other.layers_[l].weight());
        layers_[l].bias().copyFrom(other.layers_[l].bias());
    }
}

std::size_t
Mlp::paramCount() const
{
    std::size_t n = 0;
    for (const auto &layer : layers_)
        n += layer.paramCount();
    return n;
}

} // namespace lazydp
