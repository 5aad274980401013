/**
 * @file Property-based tests: invariants that must hold across swept
 * parameter spaces (TEST_P sweeps per the reproduction guidelines).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <tuple>

#include "experiment/experiment.h"
#include "models/cost_model.h"
#include "rckm/token_manager.h"
#include "scheduler/scheduler.h"

namespace dilu {
namespace {

/** Seed of the first arrival stream a test attaches. */
constexpr std::uint64_t kStreamSeed = 0x57F00D;

FunctionId
DeployInference(cluster::ClusterRuntime& rt, const char* model)
{
  core::FunctionSpec spec;
  spec.model = model;
  return rt.Deploy(spec);
}

/** Invariant: arbiter grants never exceed device capacity. */
class CapacityInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(CapacityInvariantTest, GrantsSumWithinCapacity)
{
  const auto [preset, rps] = GetParam();
  cluster::ClusterRuntime rt(cluster::PresetConfig(preset));
  core::FunctionSpec ts;
  ts.model = "bert-base";
  ts.type = TaskType::kTraining;
  const FunctionId train = rt.Deploy(ts);
  const FunctionId inf = DeployInference(rt, "roberta-large");
  ASSERT_TRUE(rt.StartTrainingOn(train, {0}, /*cold=*/false));
  rt.LaunchInferenceOn(inf, {0}, /*cold=*/false);
  rt.AttachArrivals(
      inf, std::make_unique<workload::PoissonArrivals>(rps, Rng(kStreamSeed)),
      Sec(20));

  double max_total = 0.0;
  rt.simulation().SchedulePeriodic(Ms(7), Ms(7), [&] {
    const auto& gpu = rt.gpus().gpu(0);
    double total = 0.0;
    for (const auto& a : gpu.attachments()) total += a.granted;
    max_total = std::max(max_total, total);
  });
  rt.RunFor(Sec(22));
  EXPECT_LE(max_total, 1.0 + 1e-6) << preset << " rps=" << rps;
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndLoads, CapacityInvariantTest,
    ::testing::Combine(::testing::Values("dilu", "mps-l", "mps-r", "tgs",
                                         "fastgs"),
                       ::testing::Values(5.0, 20.0, 60.0)));

/** Invariant: scheduler commitments respect Omega/gamma/memory. */
class SchedulerInvariantTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SchedulerInvariantTest, CapsHoldForRandomWorkloads)
{
  const auto [gamma, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  scheduler::ClusterState state(16);
  scheduler::DiluSchedulerConfig cfg;
  cfg.gamma = gamma;
  scheduler::DiluScheduler sched(cfg);

  for (InstanceId id = 0; id < 120; ++id) {
    scheduler::PlacementRequest req;
    req.function = static_cast<FunctionId>(rng.UniformInt(0, 9));
    req.quota.request = rng.Uniform(0.05, 0.5);
    req.quota.limit =
        std::min(1.0, req.quota.request * rng.Uniform(1.0, 2.5));
    req.mem_gb = rng.Uniform(2.0, 18.0);
    req.gpus_needed = 1;
    const auto placement = sched.Place(req, state);
    if (!placement.ok) continue;
    state.Commit(id, req.function,
                 {{placement.gpus[0], req.quota, req.mem_gb}});
  }
  for (const auto& g : state.gpus()) {
    EXPECT_LE(g.req_sum, scheduler::kOmega + 1e-9) << "gpu " << g.id;
    EXPECT_LE(g.lim_sum, cfg.gamma + 1e-9) << "gpu " << g.id;
    EXPECT_LE(g.mem_used, scheduler::kGpuMemoryGb + 1e-9) << "gpu " << g.id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, SchedulerInvariantTest,
    ::testing::Combine(::testing::Values(1.0, 1.5, 2.0),
                       ::testing::Values(1, 2, 3, 4)));

/** Invariant: token issues stay within [0, MaxTokens * limit]. */
class TokenBoundsTest : public ::testing::TestWithParam<double> {};

TEST_P(TokenBoundsTest, IssuesBounded)
{
  const double max_tokens = GetParam();
  rckm::TokenManager tm(max_tokens);
  Rng rng(17);
  for (int step = 0; step < 200; ++step) {
    std::vector<rckm::InstanceSample> samples;
    for (InstanceId id = 1; id <= 3; ++id) {
      rckm::InstanceSample s;
      s.id = id;
      s.slo_sensitive = (id == 1);
      s.quota = {0.3, 0.8};
      s.blocks_launched = rng.Uniform() < 0.3 ? 0.0 : rng.Uniform(0, 400);
      s.klc_inflation = rng.Uniform(0.0, 1.2);
      samples.push_back(s);
    }
    const auto& grants = tm.Tick(samples);
    for (const rckm::TokenGrant& g : grants) {
      EXPECT_GE(g.tokens, 0.0);
      EXPECT_LE(g.tokens, max_tokens * 0.8 + 1e-6) << "id " << g.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MaxTokenSweep, TokenBoundsTest,
                         ::testing::Values(250.0, 500.0, 1000.0, 2000.0));

/** Invariant: SLO attainment is monotone-ish in provisioned share. */
class SloMonotoneTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SloMonotoneTest, MoreShareNeverHurtsLatency)
{
  const models::ModelProfile& m = models::GetModel(GetParam());
  for (int b = 1; b <= m.max_batch; b *= 2) {
    TimeUs prev = std::numeric_limits<TimeUs>::max();
    for (double s = 0.1; s <= 1.0; s += 0.1) {
      const TimeUs t = models::InferenceIteration(m, b, s);
      EXPECT_LE(t, prev) << m.name << " b=" << b << " s=" << s;
      prev = t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, SloMonotoneTest,
                         ::testing::Values("resnet152", "vgg19",
                                           "bert-base", "roberta-large",
                                           "gpt2-large", "llama2-7b",
                                           "chatglm3-6b"));

/** Invariant: every dispatched request completes exactly once and
 *  latency is non-negative, across presets and load levels (no request
 *  is lost or double-counted through scaling/termination paths). */
class ConservationTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ConservationTest, RequestsConserved)
{
  const auto [preset, rps] = GetParam();
  cluster::ClusterRuntime rt(cluster::PresetConfig(preset));
  const FunctionId fn = DeployInference(rt, "bert-base");
  rt.LaunchInference(fn, /*cold=*/false);
  rt.LaunchInference(fn, /*cold=*/false);
  if (preset == "dilu") {
    rt.EnableAutoscaler(fn, scaling::MakeHorizontalPolicy("dilu-lazy"));
  }
  rt.AttachArrivals(
      fn, std::make_unique<workload::PoissonArrivals>(rps, Rng(kStreamSeed)),
      Sec(20));
  // Count completions independently of the metrics hub.
  std::int64_t completions = 0;
  TimeUs min_latency = Sec(1000);
  for (auto* inst : rt.gateway().instances(fn)) {
    inst->set_request_sink([&](const workload::Request& r) {
      ++completions;
      min_latency = std::min(min_latency, r.Latency());
      rt.metrics().RecordRequest(fn, r);
    });
  }
  // Drain: run past the workload end so queues empty.
  rt.RunFor(Sec(30));
  const auto report = experiment::CollectFunctionResult(rt, fn);
  EXPECT_EQ(report.completed, completions);
  EXPECT_GT(completions, static_cast<std::int64_t>(rps * 20 * 0.8));
  EXPECT_GE(min_latency, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndRates, ConservationTest,
    ::testing::Combine(::testing::Values("dilu", "mps-l", "exclusive"),
                       ::testing::Values(10.0, 60.0)));

/** Invariant: simulation results identical for identical seeds. */
TEST(Determinism, EndToEndRepeatable)
{
  auto run = [] {
    cluster::ClusterRuntime rt(cluster::ClusterConfig{});
    const FunctionId fn = DeployInference(rt, "bert-base");
    rt.LaunchInference(fn, /*cold=*/false);
    rt.LaunchInference(fn, /*cold=*/false);
    rt.AttachArrivals(fn,
                      std::make_unique<workload::GammaArrivals>(
                          60.0, 3.0, Rng(kStreamSeed)),
                      Sec(30));
    rt.RunFor(Sec(32));
    const auto r = experiment::CollectFunctionResult(rt, fn);
    return std::make_tuple(r.completed, r.p95_ms, r.svr_percent);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dilu
