/** @file Unit tests for the profilers (HGS, binary search, baselines). */
#include <gtest/gtest.h>

#include "models/cost_model.h"
#include "profiler/baseline_profilers.h"
#include "profiler/inference_profiler.h"
#include "profiler/profile_cache.h"
#include "profiler/training_profiler.h"

namespace dilu::profiler {
namespace {

using models::GetModel;

TEST(InferenceProfiler, RobertaStarMatchesPaperAnchor)
{
  // Fig 4(b): the star for RoBERTa-large sits near <IBS=4, SMR=50%>.
  const auto p = ProfileInference(GetModel("roberta-large"));
  EXPECT_EQ(p.ibs, 4);
  EXPECT_NEAR(p.quota.request, 0.5, 0.11);
  EXPECT_NEAR(p.quota.limit, 2.0 * p.quota.request, 1e-9);
}

TEST(InferenceProfiler, ChosenConfigMeetsSlo)
{
  for (const auto& m : models::AllModels()) {
    const auto p = ProfileInference(m);
    EXPECT_TRUE(models::MeetsSlo(m, p.ibs, p.quota.request)) << m.name;
    EXPECT_GT(p.te, 0.0) << m.name;
  }
}

TEST(InferenceProfiler, TrialCountsInPaperBand)
{
  // Table 2: Dilu's search takes between 2 and 12 trials on each of
  // the four Fig 4 models (8, 8, 8 and 5 here; the paper reports 6-9).
  for (const char* name : {"resnet152", "roberta-large", "gpt2-large",
                           "llama2-7b"}) {
    const auto p = ProfileInference(GetModel(name));
    EXPECT_GE(p.trials, 2) << name;
    EXPECT_LE(p.trials, 12) << name;
  }
}

TEST(InferenceProfiler, BeatsBaselineTrialCounts)
{
  for (const auto& m : models::AllModels()) {
    const int dilu_trials = ProfileInference(m).trials;
    EXPECT_LT(dilu_trials, ProfileTraversal(m).trials) << m.name;
    EXPECT_LT(dilu_trials, ProfileGpulet(m).trials) << m.name;
  }
}

TEST(InferenceProfiler, PathRecordsEveryTrial)
{
  const auto p = ProfileInference(GetModel("resnet152"));
  EXPECT_EQ(static_cast<int>(p.path.size()), p.trials);
}

TEST(InferenceProfiler, LimitCappedAtWholeGpu)
{
  for (const auto& m : models::AllModels()) {
    const auto p = ProfileInference(m);
    EXPECT_LE(p.quota.limit, 1.0) << m.name;
    EXPECT_GE(p.quota.limit, p.quota.request) << m.name;
  }
}

TEST(TrainingProfiler, RequestBelowLimit)
{
  for (const auto& m : models::AllModels()) {
    const auto p = ProfileTraining(m);
    EXPECT_GT(p.quota.request, 0.0) << m.name;
    EXPECT_LE(p.quota.request, p.quota.limit) << m.name;
    EXPECT_LE(p.quota.limit, 1.0) << m.name;
  }
}

TEST(TrainingProfiler, RequestDelivers80PercentThroughput)
{
  for (const auto& m : models::AllModels()) {
    const auto p = ProfileTraining(m);
    const double exclusive = models::TrainingThroughput(m, 1.0, 1);
    const double at_request =
        models::TrainingThroughput(m, p.quota.request, 1);
    EXPECT_GE(at_request, exclusive * 0.75) << m.name;
  }
}

TEST(TrainingProfiler, TrialCountBounded)
{
  for (const auto& m : models::AllModels()) {
    const auto p = ProfileTraining(m);
    EXPECT_LE(p.trials, 2 * (12 + 1)) << m.name;  // two binary searches
    EXPECT_GE(p.trials, 4) << m.name;
  }
}

TEST(ProfileCache, HoldsEachProfilersOutputOnce)
{
  ProfileCache cache;
  for (const auto& m : models::AllModels()) {
    const InferenceProfile& inf = cache.Inference(m);
    const InferenceProfile fresh = ProfileInference(m);
    EXPECT_EQ(inf.ibs, fresh.ibs) << m.name;
    EXPECT_EQ(inf.quota.request, fresh.quota.request) << m.name;
    EXPECT_EQ(inf.quota.limit, fresh.quota.limit) << m.name;
    EXPECT_EQ(inf.trials, fresh.trials) << m.name;
    EXPECT_EQ(&cache.Inference(m), &inf) << m.name;
    const TrainingProfile& train = cache.Training(m);
    EXPECT_EQ(train.quota.request, ProfileTraining(m).quota.request);
    EXPECT_EQ(train.quota.limit, ProfileTraining(m).quota.limit);
    EXPECT_EQ(&cache.Training(m), &train) << m.name;
  }
}

TEST(BaselineProfilers, TraversalIs60Trials)
{
  // Table 2: the traversal baseline pre-runs 6 x 10 configurations.
  EXPECT_EQ(ProfileTraversal(GetModel("roberta-large")).trials, 60);
  EXPECT_EQ(ProfileTraversal(GetModel("resnet152")).trials, 60);
}

TEST(BaselineProfilers, GpuletIs16Trials)
{
  for (const auto& m : models::AllModels()) {
    EXPECT_EQ(ProfileGpulet(m).trials, 16) << m.name;
  }
}

TEST(BaselineProfilers, InflessTrialsBetweenGpuletAndTraversal)
{
  for (const char* name : {"resnet152", "roberta-large", "gpt2-large",
                           "llama2-7b"}) {
    const auto p = ProfileInflessPredictive(GetModel(name), 0.15, Rng(1));
    EXPECT_GE(p.trials, 16) << name;
    EXPECT_LE(p.trials, 40) << name;
  }
}

TEST(BaselineProfilers, TraversalFindsAtLeastDiluQuality)
{
  // Exhaustive search is the quality upper bound on the same grid.
  for (const auto& m : models::AllModels()) {
    const auto dilu = ProfileInference(m);
    const auto trav = ProfileTraversal(m);
    EXPECT_GE(trav.te, dilu.te * 0.95) << m.name;
  }
}

}  // namespace
}  // namespace dilu::profiler
