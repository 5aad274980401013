/**
 * @file Integration tests: whole-system behaviours the paper depends on,
 * exercised end-to-end through the public API.
 */
#include <gtest/gtest.h>

#include "experiment/experiment.h"
#include "models/cost_model.h"
#include "workload/azure_traces.h"

namespace dilu {
namespace {

using cluster::ClusterRuntime;
using cluster::PresetConfig;
using core::FunctionSpec;
using experiment::CollectFunctionResult;

/** The first arrival stream's seed; the k-th gets kStreamSeed + k. */
constexpr std::uint64_t kStreamSeed = 0x57F00D;

FunctionId
DeployInference(ClusterRuntime& rt, const std::string& model)
{
  FunctionSpec spec;
  spec.model = model;
  return rt.Deploy(spec);
}

FunctionId
DeployBertTraining(ClusterRuntime& rt)
{
  FunctionSpec spec;
  spec.model = "bert-base";
  spec.type = TaskType::kTraining;
  return rt.Deploy(spec);
}

/** Collocate RoBERTa inference with BERT training on one GPU. */
struct CollocationResult {
  experiment::FunctionResult inference;
  double training_tput = 0.0;
};

CollocationResult RunCollocation(const std::string& preset, double rps,
                                 TimeUs duration = Sec(60))
{
  ClusterRuntime rt(PresetConfig(preset));
  const FunctionId train = DeployBertTraining(rt);
  const FunctionId inf = DeployInference(rt, "roberta-large");
  EXPECT_TRUE(rt.StartTrainingOn(train, {0}, /*cold=*/false));
  // Collocated on the same GPU, except under Exclusive.
  rt.LaunchInferenceOn(inf, {preset == "exclusive" ? 1 : 0},
                       /*cold=*/false);
  rt.AttachArrivals(
      inf, std::make_unique<workload::PoissonArrivals>(rps, Rng(kStreamSeed)),
      duration);
  rt.RunFor(duration + Sec(2));
  CollocationResult r;
  r.inference = CollectFunctionResult(rt, inf);
  r.training_tput = rt.TrainingThroughputUnits(train);
  return r;
}

TEST(Integration, DiluCollocationClosesOnExclusive)
{
  // Fig 7: Dilu's collocated latency stays within ~1.2-1.4x of the
  // Exclusive mode while halving GPU usage; training keeps >90% of its
  // exclusive throughput at moderate inference load.
  const auto exclusive = RunCollocation("exclusive", 20.0);
  const auto dilu = RunCollocation("dilu", 20.0);
  ASSERT_GT(exclusive.inference.completed, 500);
  ASSERT_GT(dilu.inference.completed, 500);
  EXPECT_LT(dilu.inference.p50_ms, exclusive.inference.p50_ms * 1.8);
  EXPECT_GT(dilu.training_tput, exclusive.training_tput * 0.80);
}

TEST(Integration, DiluBeatsStaticMpsRequestQuotaOnTraining)
{
  // MPS-r pins training at its request quota; Dilu lets it grow toward
  // the limit whenever the inference instance idles.
  const auto dilu = RunCollocation("dilu", 10.0);
  const auto mps_r = RunCollocation("mps-r", 10.0);
  EXPECT_GT(dilu.training_tput, mps_r.training_tput * 1.02);
}

TEST(Integration, TgsNearlyStopsCollocatedTraining)
{
  // TGS prioritizes the inference task; under sustained load the
  // opportunistic training job nearly starves (Section 5.2).
  const auto tgs = RunCollocation("tgs", 20.0);
  const auto dilu = RunCollocation("dilu", 20.0);
  ASSERT_GT(dilu.training_tput, 0.0);
  EXPECT_LT(tgs.training_tput, dilu.training_tput * 0.5);
}

TEST(Integration, FastGsOverheadShowsUpInLatency)
{
  const auto fastgs = RunCollocation("fastgs", 20.0);
  const auto mps_l = RunCollocation("mps-l", 20.0);
  EXPECT_GE(fastgs.inference.p50_ms, mps_l.inference.p50_ms);
}

TEST(Integration, GammaCvDegradesStaticButNotDilu)
{
  // Fig 10: as CV grows, static MPS p95 blows up while Dilu's fast
  // scale-up keeps the inflation bounded.
  auto run = [](const std::string& preset, double cv) {
    ClusterRuntime rt(PresetConfig(preset));
    const FunctionId train = DeployBertTraining(rt);
    const FunctionId inf = DeployInference(rt, "roberta-large");
    EXPECT_TRUE(rt.StartTrainingOn(train, {0}, /*cold=*/false));
    rt.LaunchInferenceOn(inf, {0}, /*cold=*/false);
    rt.AttachArrivals(inf,
                      std::make_unique<workload::GammaArrivals>(
                          40.0, cv, Rng(kStreamSeed)),
                      Sec(60));
    rt.RunFor(Sec(62));
    return CollectFunctionResult(rt, inf).p95_ms;
  };
  const double dilu_low = run("dilu", 0.5);
  const double dilu_high = run("dilu", 5.0);
  const double mps_r_low = run("mps-r", 0.5);
  const double mps_r_high = run("mps-r", 5.0);
  EXPECT_LT(dilu_high, mps_r_high);
  // Dilu's CV-degradation slope is flatter than static MPS-r's.
  EXPECT_LT(dilu_high / std::max(1.0, dilu_low),
            mps_r_high / std::max(1.0, mps_r_low));
}

TEST(Integration, BurstyTraceFewColdStartsWithLazyScaling)
{
  // Table 3 mechanism: lazy scaling rides out short bursts with
  // vertical headroom; eager scaling cold-starts repeatedly.
  auto run = [](const std::string& policy) {
    ClusterRuntime rt(cluster::ClusterConfig{});
    const FunctionId fn = DeployInference(rt, "roberta-large");
    rt.LaunchInference(fn, /*cold=*/false);
    rt.EnableAutoscaler(fn, scaling::MakeHorizontalPolicy(policy));
    workload::BurstySpec spec;
    spec.duration_s = 300;
    spec.base_rps = 60.0;
    spec.burst_scale = 6.0;
    rt.AttachArrivals(fn,
                      std::make_unique<workload::EnvelopeArrivals>(
                          workload::BuildBurstyTrace(spec), Rng(kStreamSeed)),
                      Sec(300));
    rt.RunFor(Sec(305));
    return CollectFunctionResult(rt, fn);
  };
  const auto lazy = run("dilu-lazy");
  const auto eager = run("eager");
  EXPECT_LT(lazy.cold_starts, eager.cold_starts);
  EXPECT_GT(lazy.completed, 10000);
}

TEST(Integration, LlmSpansFragmentedGpus)
{
  // LLaMA2-7B deployed over 4 fragmented GPUs (Fig 7 setup).
  ClusterRuntime rt(cluster::ClusterConfig{});
  FunctionSpec spec;
  spec.model = "llama2-7b";
  spec.shards = 4;
  const FunctionId fn = rt.Deploy(spec);
  rt.LaunchInference(fn, /*cold=*/false);
  rt.AttachArrivals(
      fn, std::make_unique<workload::PoissonArrivals>(3.0, Rng(kStreamSeed)),
      Sec(30));
  rt.RunFor(Sec(32));
  EXPECT_GT(CollectFunctionResult(rt, fn).completed, 50);
  EXPECT_EQ(rt.state().ActiveGpuCount(), 4);
}

TEST(Integration, SchedulerDefragmentsVersusExclusive)
{
  // Equation 1: Dilu minimizes occupied GPUs; exclusive burns one per
  // instance.
  auto gpus_used = [](const std::string& preset) {
    cluster::ClusterConfig cfg = PresetConfig(preset);
    cfg.nodes = 3;
    ClusterRuntime rt(cfg);
    for (const char* m : {"bert-base", "roberta-large", "resnet152",
                          "vgg19"}) {
      rt.LaunchInference(DeployInference(rt, m), /*cold=*/false);
    }
    return rt.state().ActiveGpuCount();
  };
  const int dilu = gpus_used("dilu");
  const int exclusive = gpus_used("exclusive");
  EXPECT_EQ(exclusive, 4);
  EXPECT_LE(dilu, 2);
}

}  // namespace
}  // namespace dilu
