/** @file End-to-end DLRM model tests including a full gradient check. */

#include <gtest/gtest.h>

#include <cmath>

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

TEST(DlrmTest, ForwardProducesFiniteLogits)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 1);
    SyntheticDataset ds(datasetFor(mc, 8));
    const MiniBatch mb = ds.batch(0);
    Tensor logits;
    model.forward(mb, logits);
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
    a.forward(mb, la);
    b.forward(mb, lb);
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
    model.forward(mb, logits);
    Tensor d_logits(4, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);
    model.backward(d_logits);

    SparseGrad grad;
    model.embeddingBackward(mb, 0, grad);
    ASSERT_FALSE(grad.rows.empty());

    auto loss_at = [&]() {
        Tensor l;
        model.forward(mb, l);
        // sum (not mean) to match unscaled per-example grads
        return BceWithLogitsLoss::forward(l, mb.labels) * 4.0;
    };

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
    model.forward(mb, logits);
    Tensor d_logits(3, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);
    model.backward(d_logits);

    auto loss_at = [&]() {
        Tensor l;
        model.forward(mb, l);
        return BceWithLogitsLoss::forward(l, mb.labels) * 3.0;
    };

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
        EXPECT_NEAR(layer.weightGrad().data()[k * 7 + k],
                    (lp - lm) / (2.0 * eps), 5e-2);
    }
    // bottom MLP layer 0
    Tensor l2;
    model.forward(mb, l2);
    model.backward(d_logits);
    LinearLayer &blayer = model.bottomMlp().layers()[0];
    for (std::size_t k = 0; k < 3; ++k) {
        float &w = blayer.weight().data()[k];
        const float orig = w;
        w = orig + eps;
        const double lp = loss_at();
        w = orig - eps;
        const double lm = loss_at();
        w = orig;
        EXPECT_NEAR(blayer.weightGrad().data()[k],
                    (lp - lm) / (2.0 * eps), 5e-2);
    }
}

TEST(DlrmTest, GhostNormsMatchPerExampleForFullModel)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel a(mc, 17);
    DlrmModel b(mc, 17);
    SyntheticDataset ds(datasetFor(mc, 6));
    const MiniBatch mb = ds.batch(2);

    Tensor la, lb;
    a.forward(mb, la);
    b.forward(mb, lb);
    Tensor d_logits(6, 1);
    BceWithLogitsLoss::backwardPerExample(la, mb.labels, d_logits);

    std::vector<double> ghost(6, 0.0);
    a.backward(d_logits, &ghost, true);
    a.accumulateEmbeddingGhostNormSq(mb, ghost);

    PerExampleGrads top, bottom;
    b.backwardPerExample(d_logits, top, bottom);
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
    b.accumulateEmbeddingGhostNormSq(mb, ref);

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
    model.forward(mb, logits);
    Tensor d_logits(1, 1);
    d_logits.at(0, 0) = 1.0f;
    model.backward(d_logits);

    std::vector<double> ghost(1, 0.0);
    model.accumulateEmbeddingGhostNormSq(mb, ghost);
    const double g2 = kernels().squaredNorm(model.embOutGrad(0).data(),
                                            mc.embedDim);
    EXPECT_NEAR(ghost[0], 4.0 * g2, 1e-9); // m=2 -> m^2 = 4
}

TEST(DlrmTest, ApplyMlpsChangesWeights)
{
    const auto mc = ModelConfig::tiny();
    DlrmModel model(mc, 23);
    SyntheticDataset ds(datasetFor(mc, 4));
    const MiniBatch mb = ds.batch(0);
    Tensor logits;
    model.forward(mb, logits);
    Tensor d_logits(4, 1);
    BceWithLogitsLoss::backwardPerExample(logits, mb.labels, d_logits);
    model.backward(d_logits);

    const float before = model.topMlp().layers()[0].weight().at(0, 0);
    model.applyMlps(0.1f);
    const float after = model.topMlp().layers()[0].weight().at(0, 0);
    EXPECT_NE(before, after);
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
