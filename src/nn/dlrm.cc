#include "nn/dlrm.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

DlrmModel::DlrmModel(const ModelConfig &config, std::uint64_t seed)
    : config_(config),
      bottom_(config.bottomDims, seed),
      interaction_(config.numTables + 1, config.embedDim),
      top_(config.fullTopDims(), seed + 0x709ull)
{
    config_.validate();
    tables_.reserve(config_.numTables);
    for (std::size_t t = 0; t < config_.numTables; ++t) {
        tables_.emplace_back(config_.rowsForTable(t), config_.embedDim);
        tables_.back().initUniform(seed + 0xE000 + t);
    }
}

DlrmModel::DlrmModel(const ModelConfig &config, UninitializedTables)
    : config_(config),
      bottom_(config.bottomDims, 0),
      interaction_(config.numTables + 1, config.embedDim),
      top_(config.fullTopDims(), 0x709ull)
{
    config_.validate();
    tables_.reserve(config_.numTables);
    for (std::size_t t = 0; t < config_.numTables; ++t)
        tables_.emplace_back(config_.rowsForTable(t), config_.embedDim);
}

std::string
DlrmModel::tieredColdPath(const std::string &dir, std::size_t t)
{
    return dir + "/lazydp_table" + std::to_string(t) + ".cold";
}

DlrmModel::DlrmModel(const ModelConfig &config, std::uint64_t seed,
                     const TieredModelOptions &tier)
    : config_(config),
      bottom_(config.bottomDims, seed),
      interaction_(config.numTables + 1, config.embedDim),
      top_(config.fullTopDims(), seed + 0x709ull)
{
    config_.validate();
    LAZYDP_ASSERT(!tier.coldDir.empty(),
                  "tiered model needs a cold directory");
    std::uint64_t total_bytes = 0;
    for (std::size_t t = 0; t < config_.numTables; ++t) {
        total_bytes += config_.rowsForTable(t) *
                       static_cast<std::uint64_t>(config_.embedDim) *
                       sizeof(float);
    }
    tables_.reserve(config_.numTables);
    for (std::size_t t = 0; t < config_.numTables; ++t) {
        const std::uint64_t tbl_bytes =
            config_.rowsForTable(t) *
            static_cast<std::uint64_t>(config_.embedDim) * sizeof(float);
        TieredOptions opts;
        // Hot budget split proportionally to table size so every table
        // sees the same hot fraction regardless of the size mix.
        opts.hotBytes = total_bytes == 0
                            ? 0
                            : static_cast<std::uint64_t>(
                                  static_cast<double>(tier.hotBytes) *
                                  static_cast<double>(tbl_bytes) /
                                  static_cast<double>(total_bytes));
        opts.coldPath = tieredColdPath(tier.coldDir, t);
        opts.pageRows = tier.pageRows;
        opts.prefetch = tier.prefetch;
        opts.reuseFile = tier.reuseFiles;
        opts.keepFile = tier.keepFiles;
        tables_.emplace_back(config_.rowsForTable(t), config_.embedDim,
                             opts);
        // Identical init stream to the dense ctor; on reuse the cold
        // files already hold the (flushed) weights.
        if (!tier.reuseFiles)
            tables_.back().initUniform(seed + 0xE000 + t);
    }
}

void
DlrmModel::drainTierWarm() const
{
    for (const auto &t : tables_) {
        if (t.tiered())
            t.tier().joinWarm();
    }
}

void
DlrmModel::flushTiers()
{
    for (auto &t : tables_) {
        if (t.tiered())
            t.tier().flush();
    }
}

TierStats
DlrmModel::tierStats() const
{
    TierStats total;
    for (const auto &t : tables_) {
        if (t.tiered())
            total += t.tier().stats();
    }
    return total;
}

DlrmModel::DlrmModel(const ModelConfig &config, PagedTables)
    : config_(config),
      bottom_(config.bottomDims, 0),
      interaction_(config.numTables + 1, config.embedDim),
      top_(config.fullTopDims(), 0x709ull)
{
    config_.validate();
    tables_.reserve(config_.numTables);
    for (std::size_t t = 0; t < config_.numTables; ++t)
        tables_.emplace_back(config_.rowsForTable(t), config_.embedDim,
                             EmbeddingTable::Paged{});
}

void
DlrmModel::prepareWorkspace(DlrmWorkspace &ws, std::size_t batch) const
{
    if (ws.embOut.size() != config_.numTables) {
        ws.embOut.resize(config_.numTables);
        ws.dEmbOut.resize(config_.numTables);
    }
    ws.lastBatch = batch;
}

void
DlrmModel::forward(const MiniBatch &mb, Tensor &logits, DlrmWorkspace &ws,
                   ExecContext &exec) const
{
    LAZYDP_ASSERT(mb.numTables == config_.numTables,
                  "batch table count != model");
    LAZYDP_ASSERT(mb.dense.cols() == config_.numDense,
                  "batch dense width != model");
    const std::size_t batch = mb.batchSize;
    prepareWorkspace(ws, batch);

    if (ws.bottomOut.rows() != batch ||
        ws.bottomOut.cols() != config_.embedDim) {
        ws.bottomOut.resize(batch, config_.embedDim);
    }
    bottom_.forward(mb.dense, ws.bottomOut, ws.bottom, exec);

    for (std::size_t t = 0; t < config_.numTables; ++t) {
        Tensor &out = ws.embOut[t];
        if (out.rows() != batch || out.cols() != config_.embedDim)
            out.resize(batch, config_.embedDim);
        tables_[t].forward(mb.tableIndices(t), batch, mb.pooling, out);
    }

    if (ws.interOut.rows() != batch ||
        ws.interOut.cols() != interaction_.outputDim()) {
        ws.interOut.resize(batch, interaction_.outputDim());
    }
    std::vector<const Tensor *> inputs;
    inputs.reserve(config_.numTables + 1);
    inputs.push_back(&ws.bottomOut);
    for (auto &e : ws.embOut)
        inputs.push_back(&e);
    interaction_.forwardInto(inputs, ws.interOut, ws.interCache, exec);

    top_.forward(ws.interOut, logits, ws.top, exec);
}

template <typename MlpHook>
void
DlrmModel::backwardImpl(const Tensor &d_logits, DlrmWorkspace &ws,
                        ExecContext &exec, MlpHook &&hook) const
{
    const std::size_t batch = d_logits.rows();
    const std::size_t embed_dim = config_.embedDim;
    LAZYDP_ASSERT(batch == ws.lastBatch,
                  "backward batch != forward batch");
    if (ws.dInterOut.rows() != batch ||
        ws.dInterOut.cols() != interaction_.outputDim())
        ws.dInterOut.resize(batch, interaction_.outputDim());
    if (ws.dBottomOut.rows() != batch || ws.dBottomOut.cols() != embed_dim)
        ws.dBottomOut.resize(batch, embed_dim);
    for (auto &d_emb : ws.dEmbOut) {
        if (d_emb.rows() != batch || d_emb.cols() != embed_dim)
            d_emb.resize(batch, embed_dim);
    }

    hook(top_, ws.top, d_logits, &ws.dInterOut, /*is_top=*/true);

    std::vector<Tensor *> d_inputs;
    d_inputs.reserve(config_.numTables + 1);
    d_inputs.push_back(&ws.dBottomOut);
    for (auto &t : ws.dEmbOut)
        d_inputs.push_back(&t);
    interaction_.backwardFrom(ws.dInterOut, d_inputs, ws.interCache,
                              exec);

    hook(bottom_, ws.bottom, ws.dBottomOut, nullptr, /*is_top=*/false);
}

void
DlrmModel::backward(const Tensor &d_logits,
                    std::vector<double> *ghost_norm_sq, DlrmWorkspace &ws,
                    DlrmGradSums *sums, ExecContext &exec) const
{
    backwardImpl(d_logits, ws, exec,
                 [&](const Mlp &mlp, MlpWorkspace &mlp_ws, const Tensor &g,
                     Tensor *dx, bool is_top) {
                     MlpGradSums *mlp_sums = nullptr;
                     if (sums != nullptr)
                         mlp_sums = is_top ? &sums->top : &sums->bottom;
                     mlp.backward(g, dx, ghost_norm_sq, mlp_ws, mlp_sums,
                                  exec);
                 });
}

void
DlrmModel::backwardNormsOnly(const Tensor &d_logits,
                             std::vector<double> &norm_sq,
                             DlrmWorkspace &ws, ExecContext &exec) const
{
    backwardImpl(d_logits, ws, exec,
                 [&](const Mlp &mlp, MlpWorkspace &mlp_ws, const Tensor &g,
                     Tensor *dx, bool) {
                     mlp.backwardNormsOnly(g, dx, norm_sq, mlp_ws, exec);
                 });
}

void
DlrmModel::backwardPerExample(const Tensor &d_logits,
                              PerExampleGrads &top_grads,
                              PerExampleGrads &bottom_grads,
                              DlrmWorkspace &ws, ExecContext &exec) const
{
    backwardImpl(d_logits, ws, exec,
                 [&](const Mlp &mlp, MlpWorkspace &mlp_ws, const Tensor &g,
                     Tensor *dx, bool is_top) {
                     mlp.backwardPerExample(
                         g, dx, is_top ? top_grads : bottom_grads, mlp_ws,
                         exec);
                 });
}

void
DlrmModel::accumulateEmbeddingGhostNormSq(const MiniBatch &mb,
                                          std::vector<double> &out,
                                          const DlrmWorkspace &ws) const
{
    const std::size_t batch = mb.batchSize;
    LAZYDP_ASSERT(out.size() == batch, "ghost-norm accumulator length");

    // For an example whose pooled gradient is g_e, a row gathered with
    // multiplicity m receives gradient m * g_e; the squared norm of the
    // example's full table gradient is therefore
    // (sum over unique rows m^2) * ||g_e||^2.
    std::unordered_map<std::uint32_t, std::uint32_t> mult;
    const KernelTable &kt = kernels();
    for (std::size_t t = 0; t < config_.numTables; ++t) {
        const Tensor &d_out = ws.dEmbOut[t];
        for (std::size_t e = 0; e < batch; ++e) {
            auto idx = mb.exampleIndices(t, e);
            double m2_sum;
            if (mb.pooling == 1) {
                m2_sum = 1.0;
            } else {
                mult.clear();
                for (auto row : idx)
                    ++mult[row];
                m2_sum = 0.0;
                for (const auto &[row, m] : mult)
                    m2_sum += static_cast<double>(m) *
                              static_cast<double>(m);
            }
            const double g2 = kt.squaredNorm(
                d_out.data() + e * config_.embedDim, config_.embedDim);
            out[e] += m2_sum * g2;
        }
    }
}

void
DlrmModel::embeddingBackwardFrom(const MiniBatch &mb, std::size_t t,
                                 const Tensor &d_out,
                                 SparseGrad &grad) const
{
    tables_[t].backward(mb.tableIndices(t), mb.batchSize, mb.pooling,
                        d_out, grad);
}

void
DlrmModel::applyMlps(float lr)
{
    bottom_.apply(lr);
    top_.apply(lr);
}

void
DlrmModel::copyWeightsFrom(const DlrmModel &other)
{
    LAZYDP_ASSERT(tables_.size() == other.tables_.size(),
                  "copyWeightsFrom across different table counts");
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        LAZYDP_ASSERT(tables_[t].rows() == other.tables_[t].rows() &&
                          tables_[t].dim() == other.tables_[t].dim(),
                      "copyWeightsFrom across different table shapes");
        if (!tables_[t].tiered() && !other.tables_[t].tiered()) {
            tables_[t].weights().copyFrom(other.tables_[t].weights());
            continue;
        }
        // A tiered table on either side: stream through a bounded
        // scratch chunk instead of materializing either table densely.
        const std::uint64_t rows = tables_[t].rows();
        const std::size_t dim = tables_[t].dim();
        const std::uint64_t chunk_rows =
            std::max<std::uint64_t>(1, (1u << 22) / dim); // ~16 MB
        std::vector<float> scratch(
            static_cast<std::size_t>(
                std::min<std::uint64_t>(rows, chunk_rows)) *
            dim);
        for (std::uint64_t lo = 0; lo < rows; lo += chunk_rows) {
            const std::uint64_t n =
                std::min<std::uint64_t>(chunk_rows, rows - lo);
            other.tables_[t].copyRowsOut(lo, n, scratch.data());
            tables_[t].copyRowsIn(lo, n, scratch.data());
        }
    }
    bottom_.copyWeightsFrom(other.bottom_);
    top_.copyWeightsFrom(other.top_);
}

void
DlrmModel::copyMlpWeightsFrom(const DlrmModel &other)
{
    bottom_.copyWeightsFrom(other.bottom_);
    top_.copyWeightsFrom(other.top_);
}

std::size_t
DlrmModel::mlpParamCount() const
{
    return bottom_.paramCount() + top_.paramCount();
}

std::uint64_t
DlrmModel::tableBytes() const
{
    std::uint64_t total = 0;
    for (const auto &t : tables_)
        total += t.bytes();
    return total;
}

} // namespace lazydp
