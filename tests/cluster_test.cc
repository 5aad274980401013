/** @file Unit tests for the cluster runtime (gateway, metrics, glue). */
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "invariant_audit.h"
#include "profiler/inference_profiler.h"
#include "profiler/training_profiler.h"

namespace dilu::cluster {
namespace {

core::FunctionSpec InferenceSpec(const std::string& model)
{
  core::FunctionSpec s;
  s.model = model;
  s.type = TaskType::kInference;
  return s;
}

TEST(MetricsHub, SvrCountsViolations)
{
  MetricsHub hub;
  hub.RegisterFunction(0, "f", /*slo_ms=*/100.0);
  workload::Request ok;
  ok.arrival = 0;
  ok.completed = Ms(50);
  workload::Request bad;
  bad.arrival = 0;
  bad.completed = Ms(150);
  hub.RecordRequest(0, ok);
  hub.RecordRequest(0, bad);
  EXPECT_DOUBLE_EQ(hub.function(0).SvrPercent(), 50.0);
  EXPECT_DOUBLE_EQ(hub.OverallSvrPercent(), 50.0);
}

// Contract test for the satellite fix: looking up metrics for an id
// that was never registered must fail loudly (DILU_CHECK panic), not
// throw out of std::map::at or silently default-construct.
TEST(MetricsHubDeathTest, UnregisteredFunctionPanics)
{
  MetricsHub hub;
  hub.RegisterFunction(0, "f", 100.0);
  EXPECT_DEATH(hub.function(42), "check failed");
  const MetricsHub& const_hub = hub;
  EXPECT_DEATH(const_hub.function(42), "check failed");
}

// Every policy name is resolved when the runtime is built, so a typo
// fails there instead of at the first launch (or fault) that reads it.
TEST(ClusterRuntimeDeathTest, UnknownPolicyNamesFailAtConstruction)
{
  ClusterConfig c;
  c.sharing = "bogus";
  EXPECT_DEATH(ClusterRuntime{c}, "unknown sharing mode: bogus");
  c = ClusterConfig{};
  c.scheduler = "bogus";
  EXPECT_DEATH(ClusterRuntime{c}, "unknown scheduler mode: bogus");
  c = ClusterConfig{};
  c.quota_mode = "bogus";
  EXPECT_DEATH(ClusterRuntime{c}, "unknown quota mode: bogus");
  c = ClusterConfig{};
  c.recovery = "bogus";
  EXPECT_DEATH(ClusterRuntime{c}, "unknown recovery mode: bogus");
}

// The hub resolves functions through an id-indexed table of pointers
// into its map: a copy would index the source's records.
static_assert(!std::is_copy_constructible_v<MetricsHub>);
static_assert(!std::is_copy_assignable_v<MetricsHub>);

TEST(MetricsHub, OutOfOrderRegistrationIteratesAscending)
{
  MetricsHub hub;
  for (FunctionId id : {3, 0, 7}) {
    hub.RegisterFunction(id, "f" + std::to_string(id), 100.0);
  }
  std::vector<FunctionId> ids;
  for (const auto& [id, m] : hub.functions()) {
    ids.push_back(id);
    EXPECT_EQ(m.name, "f" + std::to_string(id));
  }
  EXPECT_EQ(ids, (std::vector<FunctionId>{0, 3, 7}));
  // Counting paths register on first use, like the registration call.
  hub.RecordColdStart(5);
  EXPECT_EQ(hub.function(5).cold_starts, 1);
  EXPECT_EQ(hub.functions().size(), 4u);
}

TEST(MetricsHubDeathTest, UnregisteredIdAroundGapsPanics)
{
  MetricsHub hub;
  for (FunctionId id : {3, 0, 7}) hub.RegisterFunction(id, "f", 100.0);
  EXPECT_DEATH(hub.function(5), "check failed");
  EXPECT_DEATH(hub.function(8), "check failed");
  EXPECT_DEATH(hub.function(-1), "check failed");
  workload::Request r;
  EXPECT_DEATH(hub.RecordRequest(1, r), "check failed");
}

// The runtime used to hold every request of the whole run alive in its
// deque; completed requests must be pruned once the metrics hub has
// consumed them, so memory tracks the outstanding window instead of the
// trace length.
TEST(ClusterRuntime, CompletedRequestsArePruned)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, /*cold=*/false), kInvalidInstance);
  rt.AttachArrivals(fn,
                    std::make_unique<workload::PoissonArrivals>(50.0,
                                                                Rng(3)),
                    Sec(30));
  rt.RunFor(Sec(32));
  const auto& m = rt.metrics().function(fn);
  EXPECT_GT(m.completed, 1000);
  // Everything completed has been consumed and reclaimed; only the
  // outstanding tail (if any) may remain.
  EXPECT_LT(rt.pending_request_count(), 64u);
}

// Dropped requests (no live instances at dispatch time) must not be
// retained: a record that can never complete would stall the prune
// cursor for the rest of the run.
TEST(ClusterRuntime, DroppedRequestsDoNotStallPruning)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  // No instance yet: everything arriving in the first 5 s is dropped.
  rt.AttachArrivals(fn,
                    std::make_unique<workload::PoissonArrivals>(30.0,
                                                                Rng(5)),
                    Sec(20));
  rt.RunFor(Sec(5));
  EXPECT_EQ(rt.pending_request_count(), 0u);
  // An instance appears; traffic flows and still gets pruned.
  ASSERT_NE(rt.LaunchInference(fn, /*cold=*/false), kInvalidInstance);
  rt.RunFor(Sec(17));
  EXPECT_GT(rt.metrics().function(fn).completed, 100);
  EXPECT_LT(rt.pending_request_count(), 64u);
}

TEST(ClusterRuntime, DeployProfilesSpec)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("roberta-large"));
  const auto& f = rt.function(fn);
  EXPECT_EQ(f.spec.ibs, 4);
  EXPECT_GT(f.spec.quota.request, 0.0);
  EXPECT_GT(f.spec.per_instance_rps, 0.0);
}

// The runtime profiles each model once, but a deploy's own IBS and quota
// are its own: later deploys of the model get the profiler's output.
TEST(ClusterRuntime, RepeatedDeploysGetTheProfilersOutput)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  const models::ModelProfile& bert = models::GetModel("bert-base");
  const profiler::InferenceProfile inf = profiler::ProfileInference(bert);
  core::FunctionSpec pinned = InferenceSpec("bert-base");
  pinned.ibs = inf.ibs + 3;
  pinned.quota = {0.9, 1.0};
  const FunctionId first = rt.Deploy(pinned);
  EXPECT_EQ(rt.function(first).spec.ibs, inf.ibs + 3);
  EXPECT_EQ(rt.function(first).spec.quota.request, 0.9);
  const double profiled_rps =
      models::InferenceThroughput(bert, inf.ibs, inf.quota.request);
  for (int k = 0; k < 2; ++k) {
    const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
    const core::FunctionSpec& spec = rt.function(fn).spec;
    EXPECT_EQ(spec.ibs, inf.ibs);
    EXPECT_EQ(spec.quota.request, inf.quota.request);
    EXPECT_EQ(spec.quota.limit, inf.quota.limit);
    EXPECT_EQ(spec.per_instance_rps, profiled_rps);
  }

  const models::ModelProfile& resnet = models::GetModel("resnet152");
  const SmQuota trained = profiler::ProfileTraining(resnet).quota;
  core::FunctionSpec job;
  job.model = "resnet152";
  job.type = TaskType::kTraining;
  job.quota = {0.7, 0.8};
  EXPECT_EQ(rt.function(rt.Deploy(job)).spec.quota.request, 0.7);
  job.quota = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    const core::FunctionSpec& spec = rt.function(rt.Deploy(job)).spec;
    EXPECT_EQ(spec.quota.request, trained.request);
    EXPECT_EQ(spec.quota.limit, trained.limit);
  }
}

TEST(ClusterRuntime, LaunchAttachesAndServes)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  const InstanceId id = rt.LaunchInference(fn, /*cold=*/false);
  ASSERT_NE(id, kInvalidInstance);
  EXPECT_EQ(rt.state().ActiveGpuCount(), 1);
  rt.AttachArrivals(fn,
                    std::make_unique<workload::PoissonArrivals>(20.0,
                                                                Rng(1)),
                    Sec(20));
  rt.RunFor(Sec(25));
  const auto& m = rt.metrics().function(fn);
  EXPECT_GT(m.completed, 300);
  EXPECT_LT(m.SvrPercent(), 5.0);
  dilu::testing::AuditFleet(rt.state(), rt);
}

TEST(ClusterRuntime, ColdLaunchCountsColdStart)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  rt.LaunchInference(fn, /*cold=*/true);
  EXPECT_EQ(rt.metrics().function(fn).cold_starts, 1);
  rt.LaunchInference(fn, /*cold=*/false);
  EXPECT_EQ(rt.metrics().function(fn).cold_starts, 1);
}

TEST(ClusterRuntime, ScaleInReleasesResources)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  rt.LaunchInference(fn, false);
  rt.LaunchInference(fn, false);
  EXPECT_EQ(rt.DeployedInstanceCount(fn), 2);
  EXPECT_TRUE(rt.ScaleInOne(fn));
  EXPECT_EQ(rt.DeployedInstanceCount(fn), 1);
  EXPECT_FALSE(rt.ScaleInOne(fn));  // never below one
  dilu::testing::AuditFleet(rt.state(), rt);
}

TEST(ClusterRuntime, TrainingRunsToTarget)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 2;
  s.target_iterations = 10;
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  rt.RunFor(Sec(30));
  EXPECT_GE(rt.TrainingJct(fn), 0);
  EXPECT_EQ(rt.function(fn).job->stats().iterations_completed, 10);
  // Workers released on completion.
  EXPECT_EQ(rt.DeployedInstanceCount(fn), 0);
  EXPECT_EQ(rt.state().ActiveGpuCount(), 0);
}

TEST(ClusterRuntime, DiluCollocatesComplementaryFunctions)
{
  ClusterConfig cfg;  // dilu scheduler packs
  cfg.nodes = 1;
  cfg.gpus_per_node = 4;
  ClusterRuntime rt(cfg);
  const FunctionId a = rt.Deploy(InferenceSpec("roberta-large"));
  const FunctionId b = rt.Deploy(InferenceSpec("resnet152"));
  ASSERT_NE(rt.LaunchInference(a, false), kInvalidInstance);
  ASSERT_NE(rt.LaunchInference(b, false), kInvalidInstance);
  // Requests ~0.5 + ~0.2 fit under omega = 1 and limits 1.0 + 0.4
  // under gamma = 1.5: one shared GPU.
  EXPECT_EQ(rt.state().ActiveGpuCount(), 1);
}

TEST(ClusterRuntime, ExclusivePresetUsesOneGpuEach)
{
  ClusterConfig cfg;
  cfg.sharing = "static";
  cfg.scheduler = "exclusive";
  cfg.quota_mode = "full";
  ClusterRuntime rt(cfg);
  const FunctionId a = rt.Deploy(InferenceSpec("bert-base"));
  const FunctionId b = rt.Deploy(InferenceSpec("roberta-large"));
  rt.LaunchInference(a, false);
  rt.LaunchInference(b, false);
  EXPECT_EQ(rt.state().ActiveGpuCount(), 2);
}

/** Occurrences of `needle` in `text`. */
int CountOf(const std::string& text, const std::string& needle)
{
  int n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ClusterRuntime, PlacementFailureWarnsOncePerStreak)
{
  // One node of two GPUs, one instance per GPU: a third launch fails.
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 2;
  cfg.sharing = "static";
  cfg.scheduler = "exclusive";
  cfg.quota_mode = "full";
  ClusterRuntime rt(cfg);
  const FunctionId a = rt.Deploy(InferenceSpec("bert-base"));
  const FunctionId b = rt.Deploy(InferenceSpec("roberta-large"));
  const LogLevel level = Logger::level();
  Logger::set_level(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  ASSERT_NE(rt.LaunchInference(a, false), kInvalidInstance);
  ASSERT_NE(rt.LaunchInference(a, false), kInvalidInstance);
  // Streak 1 of `a`: three failures, one warning.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rt.LaunchInference(a, false), kInvalidInstance);
  }
  // `b` keeps its own streak.
  EXPECT_EQ(rt.LaunchInference(b, false), kInvalidInstance);
  EXPECT_EQ(rt.LaunchInference(b, false), kInvalidInstance);
  // A success ends the streak; the next failure opens streak 2.
  ASSERT_TRUE(rt.ScaleInOne(a));
  ASSERT_NE(rt.LaunchInference(a, false), kInvalidInstance);
  EXPECT_EQ(rt.LaunchInference(a, false), kInvalidInstance);
  EXPECT_EQ(rt.LaunchInference(a, false), kInvalidInstance);
  const std::string err = ::testing::internal::GetCapturedStderr();
  Logger::set_level(level);
  EXPECT_EQ(CountOf(err, "placement failed for function "
                         + std::to_string(a) + "\n"), 2) << err;
  EXPECT_EQ(CountOf(err, "placement failed for function "
                         + std::to_string(b) + "\n"), 1) << err;
  EXPECT_EQ(CountOf(err, "placement failed"), 3) << err;
}

TEST(ClusterRuntime, AutoscalerAddsInstancesUnderLoad)
{
  ClusterConfig cfg;
  cfg.nodes = 2;
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  rt.LaunchInference(fn, false);
  rt.EnableAutoscaler(fn, std::make_unique<scaling::DiluLazyScaler>());
  const double overload = rt.function(fn).spec.per_instance_rps * 2.5;
  rt.AttachArrivals(
      fn, std::make_unique<workload::PoissonArrivals>(overload, Rng(2)),
      Sec(60));
  rt.RunFor(Sec(60));
  EXPECT_GE(rt.DeployedInstanceCount(fn), 2);
  EXPECT_FALSE(rt.function(fn).instance_count_series.empty());
  dilu::testing::AuditFleet(rt.state(), rt);
}

TEST(ClusterRuntime, SamplesClusterEverySecond)
{
  ClusterConfig cfg;
  ClusterRuntime rt(cfg);
  rt.RunFor(Sec(10));
  EXPECT_GE(rt.metrics().samples().size(), 9u);
}

TEST(ClusterRuntime, GpuTimeAccountingOnRelease)
{
  ClusterConfig cfg;
  cfg.quota_mode = "full";
  cfg.sharing = "static";
  cfg.scheduler = "exclusive";
  ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  rt.LaunchInference(fn, false);
  rt.LaunchInference(fn, false);
  rt.RunFor(Sec(10));
  rt.ScaleInOne(fn);
  EXPECT_NEAR(rt.metrics().total_gpu_seconds(), 10.0, 0.5);
}

}  // namespace
}  // namespace dilu::cluster
