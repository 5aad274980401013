/** @file Unit + property tests for the model catalog and cost model. */
#include <gtest/gtest.h>

#include <cmath>

#include "models/cost_model.h"
#include "models/model_catalog.h"
#include "scaling/coldstart.h"

namespace dilu::models {
namespace {

TEST(Catalog, ContainsAllPaperModels)
{
  for (const char* name :
       {"resnet152", "vgg19", "bert-base", "roberta-large", "gpt2-large",
        "llama2-7b", "chatglm3-6b"}) {
    EXPECT_TRUE(HasModel(name)) << name;
  }
  EXPECT_FALSE(HasModel("gpt5"));
  EXPECT_EQ(AllModels().size(), 7u);
}

TEST(Catalog, ParamSizesSpanPaperRange)
{
  // The paper: "model parameters range from 0.2GB to 12.6GB".
  double lo = 1e9;
  double hi = 0.0;
  for (const ModelProfile& m : AllModels()) {
    lo = std::min(lo, m.param_gb);
    hi = std::max(hi, m.param_gb);
  }
  EXPECT_NEAR(lo, 0.22, 0.05);
  EXPECT_NEAR(hi, 12.6, 0.1);
}

TEST(CostModel, RobertaAnchorMatchesPaper)
{
  // Section 3.2: RoBERTa-large IBS=4 at 50% SMR executes in ~SLO/2 and
  // doubling the SMR to 100% buys only ~2-4% more throughput.
  const ModelProfile& m = GetModel("roberta-large");
  const double t_half = ToMs(InferenceIteration(m, 4, 0.5));
  const double t_full = ToMs(InferenceIteration(m, 4, 1.0));
  EXPECT_NEAR(t_half, 50.0, 2.5);
  const double boost = t_half / t_full - 1.0;
  EXPECT_GT(boost, 0.0);
  EXPECT_LT(boost, 0.06);
}

TEST(CostModel, SpeedIsMonotoneInShare)
{
  for (const ModelProfile& m : AllModels()) {
    for (int b : {1, 4, 16}) {
      double prev = 0.0;
      for (double s = 0.05; s <= 1.0; s += 0.05) {
        const double v = InferenceSpeed(m, b, s);
        EXPECT_GE(v, prev) << m.name << " b=" << b << " s=" << s;
        prev = v;
      }
    }
  }
}

TEST(CostModel, SaturationShareGrowsWithBatch)
{
  for (const ModelProfile& m : AllModels()) {
    double prev = 0.0;
    for (int b = 1; b <= m.max_batch; b *= 2) {
      const double sat = SaturationShare(m, b);
      EXPECT_GE(sat, prev) << m.name;
      EXPECT_LE(sat, 1.0);
      EXPECT_GT(sat, 0.0);
      prev = sat;
    }
  }
}

TEST(CostModel, IterationTimeMonotoneInBatch)
{
  for (const ModelProfile& m : AllModels()) {
    TimeUs prev = 0;
    for (int b = 1; b <= m.max_batch; b *= 2) {
      const TimeUs t = InferenceIterationFull(m, b);
      EXPECT_GT(t, prev) << m.name;
      prev = t;
    }
  }
}

TEST(CostModel, BatchingImprovesSaturatedThroughput)
{
  // Sub-linear batch cost growth => larger batches serve more rps.
  for (const ModelProfile& m : AllModels()) {
    const double t1 = InferenceThroughput(m, 1, 1.0);
    const double t4 = InferenceThroughput(m, 4, 1.0);
    EXPECT_GT(t4, t1) << m.name;
  }
}

TEST(CostModel, ExecBudgetIsHalfSlo)
{
  const ModelProfile& m = GetModel("bert-base");
  EXPECT_EQ(ExecBudget(m), static_cast<TimeUs>(m.slo_ms * 500));
}

TEST(CostModel, TrainingThroughputSaturates)
{
  const ModelProfile& m = GetModel("bert-base");
  const double at_sat = TrainingThroughput(m, m.train_sat, 1);
  const double at_full = TrainingThroughput(m, 1.0, 1);
  EXPECT_GT(at_full, at_sat * 0.99);
  EXPECT_LT(at_full, at_sat * 1.10);  // only the marginal residual
  const double at_half_sat = TrainingThroughput(m, m.train_sat / 2, 1);
  EXPECT_LT(at_half_sat, at_sat * 0.75);
}

TEST(CostModel, Gpt2TrainingIdleFractionMatchesObservation2)
{
  // Observation-2: 4-worker GPT2-large DDP idles > 40% of GPU time.
  const ModelProfile& m = GetModel("gpt2-large");
  const double comm = static_cast<double>(TrainingCommPhase(m));
  const double comp =
      static_cast<double>(TrainingComputePhase(m, 1.0));
  EXPECT_GT(comm / (comm + comp), 0.40);
}

TEST(CostModel, LlamaPipelineBubbleAround20Percent)
{
  const ModelProfile& m = GetModel("llama2-7b");
  const double comm = static_cast<double>(TrainingCommPhase(m));
  const double comp =
      static_cast<double>(TrainingComputePhase(m, 1.0));
  EXPECT_NEAR(comm / (comm + comp), 0.20, 0.04);
}

TEST(CostModel, ColdStartScalesWithModelSize)
{
  using scaling::kContainerBase;
  using scaling::kLoadGbps;
  const TimeUs small =
      ColdStartDuration(GetModel("bert-base"), kContainerBase, kLoadGbps);
  const TimeUs large =
      ColdStartDuration(GetModel("llama2-7b"), kContainerBase, kLoadGbps);
  EXPECT_GT(large, small + Sec(12));  // 12.4 GB more at 0.8 GB/s
  EXPECT_GT(small, Sec(6));           // container base alone
}

TEST(CostModel, BlocksPerIterationPositiveAndScales)
{
  const ModelProfile& m = GetModel("roberta-large");
  const double b1 = BlocksPerIteration(m, 1);
  const double b4 = BlocksPerIteration(m, 4);
  EXPECT_GT(b1, 0.0);
  EXPECT_GT(b4, b1);
}

TEST(CostModel, ZeroShareMeansNoProgress)
{
  const ModelProfile& m = GetModel("resnet152");
  EXPECT_EQ(InferenceSpeed(m, 1, 0.0), 0.0);
  EXPECT_EQ(TrainingSpeed(m, 0.0), 0.0);
  EXPECT_EQ(InferenceThroughput(m, 1, 0.0), 0.0);
}

/** Property sweep: TE surface is well-formed for every model. */
class TeSurfaceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TeSurfaceTest, TeFiniteAndPositiveOnGrid)
{
  const ModelProfile& m = GetModel(GetParam());
  for (int b = 1; b <= m.max_batch; b *= 2) {
    for (double s = 0.1; s <= 1.0; s += 0.1) {
      const double te = ThroughputEfficacy(m, b, s);
      EXPECT_GT(te, 0.0) << m.name;
      EXPECT_TRUE(std::isfinite(te));
    }
  }
}

TEST_P(TeSurfaceTest, TeDecliningAboveSaturation)
{
  // Past saturation, extra SMR buys almost nothing, so TE ~ 1/s falls.
  const ModelProfile& m = GetModel(GetParam());
  const int b = 1;
  const double sat = SaturationShare(m, b);
  if (sat < 0.8) {
    EXPECT_GT(ThroughputEfficacy(m, b, sat),
              ThroughputEfficacy(m, b, std::min(1.0, sat + 0.3)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, TeSurfaceTest,
                         ::testing::Values("resnet152", "vgg19",
                                           "bert-base", "roberta-large",
                                           "gpt2-large", "llama2-7b",
                                           "chatglm3-6b"));

}  // namespace
}  // namespace dilu::models
