/**
 * @file
 * Whole-system tests: the preset table as the spec loader sees it, and
 * short serving runs on a ClusterRuntime.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "experiment/experiment.h"

namespace dilu {
namespace {

using experiment::FunctionResult;
using workload::PoissonArrivals;

TEST(ClusterPresets, EveryRowLoadsThroughThePresetKey)
{
  for (const cluster::ClusterPreset& p : cluster::kPresets) {
    const std::string text =
        "experiment e\ncluster preset=" + std::string(p.name) + "\n";
    experiment::ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
        << error;
    const cluster::ClusterConfig c =
        experiment::BuildClusterConfig(spec.cluster(), spec.fabric());
    EXPECT_EQ(c.sharing, p.sharing) << p.name;
    EXPECT_EQ(c.scheduler, p.scheduler) << p.name;
    EXPECT_EQ(c.quota_mode, p.quota_mode) << p.name;
    EXPECT_EQ(c.warm_starts, p.warm_starts) << p.name;
  }
  // The Dilu row is the ClusterConfig defaults.
  EXPECT_EQ(cluster::PresetConfig("dilu").sharing,
            cluster::ClusterConfig{}.sharing);
}

TEST(ClusterPresets, UnknownPresetIsRejectedWithItsLine)
{
  experiment::ExperimentSpec spec;
  std::string error;
  EXPECT_FALSE(experiment::ExperimentSpec::Parse(
      "experiment e\n# x\ncluster preset=mps-x\n", &spec, &error));
  EXPECT_EQ(error, "line 3: unknown preset 'mps-x'");
}

constexpr std::uint64_t kSeed = 0x57F00D;

/**
 * `model` on one warm instance of the default (Dilu) cluster, driven by
 * `p` for `duration` and run `tail` past it.
 */
FunctionResult
Serve(const char* model, std::unique_ptr<workload::ArrivalProcess> p,
      TimeUs duration, TimeUs tail, bool autoscale = false)
{
  cluster::ClusterRuntime rt(cluster::ClusterConfig{});
  core::FunctionSpec spec;
  spec.model = model;
  const FunctionId fn = rt.Deploy(spec);
  rt.LaunchInference(fn, /*cold=*/false);
  if (autoscale) {
    rt.EnableAutoscaler(fn, scaling::MakeHorizontalPolicy("dilu-lazy"));
  }
  rt.AttachArrivals(fn, std::move(p), duration);
  rt.RunFor(duration + tail);
  return experiment::CollectFunctionResult(rt, fn);
}

TEST(System, QuickstartFlow)
{
  auto poisson = std::make_unique<PoissonArrivals>(20.0, Rng(kSeed));
  const FunctionResult r =
      Serve("roberta-large", std::move(poisson), Sec(30), Sec(5));
  EXPECT_GT(r.completed, 400);
  EXPECT_GT(r.p50_ms, 0.0);
  EXPECT_LE(r.p50_ms, r.p95_ms);
  EXPECT_LT(r.svr_percent, 10.0);
}

TEST(System, GammaDriverRuns)
{
  auto gamma =
      std::make_unique<workload::GammaArrivals>(30.0, 4.0, Rng(kSeed));
  EXPECT_GT(Serve("bert-base", std::move(gamma), Sec(20), Sec(5)).completed,
            300);
}

TEST(System, EnvelopeDriverRuns)
{
  auto envelope = std::make_unique<workload::EnvelopeArrivals>(
      std::vector<double>(20, 25.0), Rng(kSeed));
  EXPECT_GT(
      Serve("bert-base", std::move(envelope), Sec(20), Sec(5)).completed,
      300);
}

TEST(System, CoScalingEnables)
{
  auto poisson = std::make_unique<PoissonArrivals>(10.0, Rng(kSeed));
  EXPECT_GT(Serve("bert-base", std::move(poisson), Sec(10), Sec(2),
                  /*autoscale=*/true)
                .completed,
            50);
}

TEST(System, DeterministicAcrossRuns)
{
  auto run = [] {
    return Serve("roberta-large",
                 std::make_unique<PoissonArrivals>(25.0, Rng(kSeed)),
                 Sec(20), Sec(2));
  };
  const FunctionResult a = run();
  const FunctionResult b = run();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.p95_ms, b.p95_ms);
  EXPECT_DOUBLE_EQ(a.svr_percent, b.svr_percent);
}

}  // namespace
}  // namespace dilu
