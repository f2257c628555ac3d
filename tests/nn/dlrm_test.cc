/** @file End-to-end DLRM model tests including a full gradient check. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/synthetic_dataset.h"
#include "kernels/kernel_registry.h"
#include "nn/dlrm.h"
#include "nn/loss.h"

namespace lazydp {
namespace {

DatasetConfig
datasetFor(const ModelConfig &mc, std::size_t batch)
{
    DatasetConfig dc;
    dc.numDense = mc.numDense;
    dc.numTables = mc.numTables;
    dc.rowsPerTable = mc.rowsPerTable;
    dc.pooling = mc.pooling;
    dc.batchSize = batch;
    dc.seed = 77;
    return dc;
}

ExecContext &
serial()
{
    return ExecContext::serial();
}

/** @return the lot loss sum of a forward in a fresh workspace. */
double
lossSum(const DlrmModel &model, const MiniBatch &mb)
{
    DlrmWorkspace ws;
    Tensor logits;
    model.forward(mb, logits, ws, serial());
    return BceWithLogitsLoss::forwardSum(logits, mb.labels);
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(DlrmTest, ForwardProducesFiniteLogits)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 1);
    SyntheticDataset ds(datasetFor(mc, 8));
    const MiniBatch mb = ds.batch(0);
    Tensor logits;
    DlrmWorkspace ws;
    model.forward(mb, logits, ws, serial());
    EXPECT_EQ(logits.rows(), 8u);
    EXPECT_EQ(logits.cols(), 1u);
    for (std::size_t i = 0; i < logits.size(); ++i)
        EXPECT_TRUE(std::isfinite(logits.data()[i]));
}

TEST(DlrmTest, ForwardIsDeterministic)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel a(mc, 5);
    DlrmModel b(mc, 5);
    SyntheticDataset ds(datasetFor(mc, 4));
    const MiniBatch mb = ds.batch(3);
    Tensor la, lb;
    DlrmWorkspace wa, wb;
    a.forward(mb, la, wa, serial());
    b.forward(mb, lb, wb, serial());
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la.data()[i], lb.data()[i]);
}

TEST(DlrmTest, EmbeddingWeightGradNumericalCheck)
{
    // full-model check: loss derivative wrt an embedding weight
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 9);
    SyntheticDataset ds(datasetFor(mc, 4));
    const MiniBatch mb = ds.batch(0);

    Tensor logits;
    DlrmWorkspace ws;
    model.forward(mb, logits, ws, serial());
    Tensor d_logits(4, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);
    model.backward(d_logits, nullptr, ws, nullptr, serial());

    SparseGrad grad;
    model.embeddingBackwardFrom(mb, 0, ws.dEmbOut[0], grad);
    ASSERT_FALSE(grad.rows.empty());

    // sum (not mean) to match unscaled per-example grads
    auto loss_at = [&]() { return lossSum(model, mb); };

    const float eps = 2e-3f;
    const std::uint32_t row = grad.rows[0];
    for (std::size_t d = 0; d < std::min<std::size_t>(3, mc.embedDim);
         ++d) {
        float &w = model.tables()[0].rowPtr(row)[d];
        const float orig = w;
        w = orig + eps;
        const double lp = loss_at();
        w = orig - eps;
        const double lm = loss_at();
        w = orig;
        const double num = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(grad.values.at(0, d), num, 5e-2) << "d=" << d;
    }
}

TEST(DlrmTest, MlpWeightGradNumericalCheck)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 13);
    SyntheticDataset ds(datasetFor(mc, 3));
    const MiniBatch mb = ds.batch(1);

    Tensor logits;
    DlrmWorkspace ws;
    model.forward(mb, logits, ws, serial());
    Tensor d_logits(3, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);
    DlrmGradSums sums;
    model.backward(d_logits, nullptr, ws, &sums, serial());

    auto loss_at = [&]() { return lossSum(model, mb); };

    const float eps = 2e-3f;
    // top MLP layer 0, a few weights
    LinearLayer &layer = model.topMlp().layers()[0];
    for (std::size_t k = 0; k < 3; ++k) {
        float &w = layer.weight().data()[k * 7 + k];
        const float orig = w;
        w = orig + eps;
        const double lp = loss_at();
        w = orig - eps;
        const double lm = loss_at();
        w = orig;
        EXPECT_NEAR(sums.top.w[0].data()[k * 7 + k],
                    (lp - lm) / (2.0 * eps), 5e-2);
    }
    // bottom MLP layer 0
    LinearLayer &blayer = model.bottomMlp().layers()[0];
    for (std::size_t k = 0; k < 3; ++k) {
        float &w = blayer.weight().data()[k];
        const float orig = w;
        w = orig + eps;
        const double lp = loss_at();
        w = orig - eps;
        const double lm = loss_at();
        w = orig;
        EXPECT_NEAR(sums.bottom.w[0].data()[k],
                    (lp - lm) / (2.0 * eps), 5e-2);
    }
}

TEST(DlrmTest, GhostNormsMatchPerExampleForFullModel)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 17);
    SyntheticDataset ds(datasetFor(mc, 6));
    const MiniBatch mb = ds.batch(2);

    // One workspace per pass: the per-example backward must not find
    // the ghost-norm pass's activation gradients in its scratch.
    Tensor logits;
    DlrmWorkspace ws_ghost, ws_peg;
    model.forward(mb, logits, ws_ghost, serial());
    model.forward(mb, logits, ws_peg, serial());
    Tensor d_logits(6, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);

    std::vector<double> ghost(6, 0.0);
    model.backward(d_logits, &ghost, ws_ghost, nullptr, serial());
    model.accumulateEmbeddingGhostNormSq(mb, ghost, ws_ghost);

    PerExampleGrads top, bottom;
    model.backwardPerExample(d_logits, top, bottom, ws_peg, serial());
    std::vector<double> ref(6, 0.0);
    auto add = [&](const PerExampleGrads &peg) {
        for (const auto &w : peg.w)
            for (std::size_t e = 0; e < 6; ++e)
                ref[e] += kernels().squaredNorm(w.data() + e * w.cols(),
                                                w.cols());
        for (const auto &bias : peg.b)
            for (std::size_t e = 0; e < 6; ++e)
                ref[e] += kernels().squaredNorm(
                    bias.data() + e * bias.cols(), bias.cols());
    };
    add(top);
    add(bottom);
    model.accumulateEmbeddingGhostNormSq(mb, ref, ws_peg);

    for (std::size_t e = 0; e < 6; ++e)
        EXPECT_NEAR(ghost[e], ref[e], 1e-4 * (1.0 + ref[e]));
}

TEST(DlrmTest, EmbeddingGhostNormCountsDuplicateMultiplicity)
{
    // pooling 2 with forced duplicate indices: multiplicity m
    // contributes m^2 * ||g||^2
    auto mc = ModelConfig::tiny();
    mc.numTables = 1;
    mc.pooling = 2;
    DlrmModel model(mc, 19);
    MiniBatch mb;
    mb.resize(1, 1, 2, mc.numDense);
    mb.tableIndices(0)[0] = 7;
    mb.tableIndices(0)[1] = 7; // duplicate
    mb.labels[0] = 1.0f;

    Tensor logits;
    DlrmWorkspace ws;
    model.forward(mb, logits, ws, serial());
    Tensor d_logits(1, 1);
    d_logits.at(0, 0) = 1.0f;
    model.backward(d_logits, nullptr, ws, nullptr, serial());

    std::vector<double> ghost(1, 0.0);
    model.accumulateEmbeddingGhostNormSq(mb, ghost, ws);
    const double g2 =
        kernels().squaredNorm(ws.dEmbOut[0].data(), mc.embedDim);
    EXPECT_NEAR(ghost[0], 4.0 * g2, 1e-9); // m=2 -> m^2 = 4
}

TEST(DlrmTest, ApplyMlpsChangesWeights)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 23);
    SyntheticDataset ds(datasetFor(mc, 4));
    const MiniBatch mb = ds.batch(0);
    Tensor logits;
    DlrmWorkspace ws;
    model.forward(mb, logits, ws, serial());
    Tensor d_logits(4, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);
    DlrmGradSums sums;
    model.backward(d_logits, nullptr, ws, &sums, serial());
    auto store = [](Mlp &mlp, const MlpGradSums &s) {
        for (std::size_t li = 0; li < mlp.layers().size(); ++li) {
            mlp.layers()[li].weightGrad().copyFrom(s.w[li]);
            mlp.layers()[li].biasGrad().copyFrom(s.b[li]);
        }
    };
    store(model.bottomMlp(), sums.bottom);
    store(model.topMlp(), sums.top);

    const float before = model.topMlp().layers()[0].weight().at(0, 0);
    model.applyMlps(0.1f);
    const float after = model.topMlp().layers()[0].weight().at(0, 0);
    EXPECT_NE(before, after);
}

TEST(DlrmTest, NullSumsChangesNothingButParamGrads)
{
    // A backward without gradient sums is the same backward minus the
    // parameter gradients: activation gradients and ghost norms match
    // the run with sums bit for bit, and no layer gradient is written.
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 31);
    SyntheticDataset ds(datasetFor(mc, 6));
    const MiniBatch mb = ds.batch(4);

    Tensor logits;
    DlrmWorkspace with_sums, no_sums;
    model.forward(mb, logits, with_sums, serial());
    model.forward(mb, logits, no_sums, serial());
    Tensor d_logits(6, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);

    auto for_each_layer = [&](auto &&fn) {
        for (Mlp *mlp : {&model.bottomMlp(), &model.topMlp()})
            for (LinearLayer &layer : mlp->layers())
                fn(layer);
    };
    for_each_layer([](LinearLayer &layer) {
        layer.weightGrad().fill(7.0f);
        layer.biasGrad().fill(-3.0f);
    });

    std::vector<double> ghost_no(6, 0.0), ghost_with(6, 0.0);
    model.backward(d_logits, &ghost_no, no_sums, nullptr, serial());
    DlrmGradSums sums;
    model.backward(d_logits, &ghost_with, with_sums, &sums, serial());

    EXPECT_EQ(std::memcmp(ghost_no.data(), ghost_with.data(),
                          ghost_no.size() * sizeof(double)),
              0);
    EXPECT_TRUE(bitEqual(no_sums.dBottomOut, with_sums.dBottomOut));
    ASSERT_EQ(no_sums.dEmbOut.size(), mc.numTables);
    for (std::size_t t = 0; t < mc.numTables; ++t)
        EXPECT_TRUE(bitEqual(no_sums.dEmbOut[t], with_sums.dEmbOut[t]))
            << "table " << t;
    for_each_layer([](LinearLayer &layer) {
        for (std::size_t i = 0; i < layer.weightGrad().size(); ++i)
            ASSERT_EQ(layer.weightGrad().data()[i], 7.0f);
        for (std::size_t i = 0; i < layer.biasGrad().size(); ++i)
            ASSERT_EQ(layer.biasGrad().data()[i], -3.0f);
    });
}

TEST(DlrmTest, TableBytesSumsTables)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 29);
    EXPECT_EQ(model.tableBytes(),
              mc.numTables * mc.rowsPerTable * mc.embedDim * 4);
}

} // namespace
} // namespace lazydp
