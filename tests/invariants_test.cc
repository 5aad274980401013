/**
 * @file
 * The invariant-audit layer's own tests: the degraded-health state
 * machine, checkpointed training restarts and joint recovery
 * bin-packing, each audited with tests/invariant_audit.h at every key
 * checkpoint — plus a randomized storm that fuzzes the ClusterState
 * index maintenance under interleaved commits, releases and health
 * transitions.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_engine.h"
#include "common/random.h"
#include "invariant_audit.h"
#include "scaling/global_scaler.h"
#include "scheduler/scheduler.h"
#include "workload/arrival.h"

namespace dilu {
namespace {

using testing::AuditFleet;
using testing::AuditState;

core::FunctionSpec
InferenceSpec(const std::string& model)
{
  core::FunctionSpec s;
  s.model = model;
  s.type = TaskType::kInference;
  return s;
}

/** Inference spec with an explicit quota (skips the profiler). */
core::FunctionSpec
QuotaSpec(const std::string& model, double request, double limit)
{
  core::FunctionSpec s = InferenceSpec(model);
  s.quota = {request, limit};
  s.ibs = 8;
  s.per_instance_rps = 50.0;
  return s;
}

// --- degraded health state -------------------------------------------

TEST(DegradedState, StaysSchedulableWithTightenedCaps)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 2; ++i) cs.AddGpu(0);
  cs.SetDegraded(0, 0.5);
  AuditState(cs);
  EXPECT_EQ(cs.SchedulableGpuCount(), 2);
  EXPECT_EQ(cs.DegradedGpuCount(), 1);
  EXPECT_NEAR(cs.EffectiveCapacity(), 1.5, 1e-12);
  // Still the min-idle answer: degraded devices accept placements.
  EXPECT_EQ(cs.MinIdleGpu(), 0);

  scheduler::DiluScheduler sched;
  // 0.4 fits the degraded half-device (omega * 0.5 = 0.5)...
  scheduler::PlacementRequest req;
  req.function = 0;
  req.quota = {0.4, 0.6};
  req.mem_gb = 2.0;
  auto p = sched.Place(req, cs);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 0);
  cs.Commit(1, 0, {{0, req.quota, req.mem_gb}});
  AuditState(cs);

  // ... but a second 0.4 would breach it, so placement spills to the
  // whole device even though GPU 0 has nominal room.
  req.function = 1;
  p = sched.Place(req, cs);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);
  cs.Commit(2, 1, {{1, req.quota, req.mem_gb}});
  AuditState(cs);

  // Healing restores the whole device and the min-idle order.
  cs.SetHealth(0, GpuHealth::kUp);
  EXPECT_DOUBLE_EQ(cs.gpu(0).capacity, 1.0);
  EXPECT_EQ(cs.DegradedGpuCount(), 0);
  EXPECT_NEAR(cs.EffectiveCapacity(), 2.0, 1e-12);
  AuditState(cs);
}

TEST(DegradedState, EscalatesToDownAndHealsWhole)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 2; ++i) cs.AddGpu(0);
  cs.Commit(1, 0, {{0, {0.3, 0.5}, 4.0}});
  cs.SetDegraded(0, 0.6);
  AuditState(cs);
  // Escalation: the degraded device dies; capacity is remembered (the
  // device is still broken) but it leaves every placement index.
  cs.SetHealth(0, GpuHealth::kDown);
  EXPECT_EQ(cs.DegradedGpuCount(), 0);
  EXPECT_EQ(cs.SchedulableGpuCount(), 1);
  AuditState(cs);
  // Healing makes it whole again.
  cs.Release(1);
  cs.SetHealth(0, GpuHealth::kUp);
  EXPECT_DOUBLE_EQ(cs.gpu(0).capacity, 1.0);
  AuditState(cs);
}

TEST(DegradedState, InstanceCapacityFactorIsTheSlowestShard)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 3; ++i) cs.AddGpu(0);
  cs.Commit(7, 0, {{0, {0.2, 0.4}, 4.0}, {1, {0.2, 0.4}, 4.0}});
  EXPECT_DOUBLE_EQ(cs.InstanceCapacityFactor(7), 1.0);
  cs.SetDegraded(1, 0.4);
  // A lockstep multi-shard instance runs at its slowest device.
  EXPECT_DOUBLE_EQ(cs.InstanceCapacityFactor(7), 0.4);
  EXPECT_DOUBLE_EQ(cs.InstanceCapacityFactor(99), 1.0);  // unknown
  AuditState(cs);
}

TEST(DegradedRuntime, DegradedGpuSlowsTrainingAndHeals)
{
  // Same job on the same seed, with and without a degrade: the
  // degraded run must make measurably less progress (grants squeeze to
  // the surviving capacity), and healing restores full speed.
  auto run = [](bool degrade) {
    cluster::ClusterConfig cfg;
    cluster::ClusterRuntime rt(cfg);
    core::FunctionSpec s;
    s.model = "bert-base";
    s.type = TaskType::kTraining;
    s.workers = 1;
    s.target_iterations = 2000000;
    const FunctionId fn = rt.Deploy(s);
    EXPECT_TRUE(rt.StartTraining(fn, /*cold=*/false));
    if (degrade) rt.DegradeGpu(0, 0.3);
    rt.RunFor(Sec(10));
    AuditFleet(rt.state(), rt);
    return rt.function(fn).job->stats().iterations_completed;
  };
  const auto whole = run(false);
  const auto degraded = run(true);
  ASSERT_GT(whole, 0);
  ASSERT_GT(degraded, 0);
  EXPECT_LT(degraded, whole * 3 / 4)
      << "degrading to 30% capacity barely slowed the job";
}

TEST(DegradedRuntime, RecoverGpuHealsDegradationAndAudits)
{
  cluster::ClusterConfig cfg;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, false), kInvalidInstance);
  rt.StraggleGpu(0, 2.5);
  EXPECT_EQ(rt.gpu_health(0), GpuHealth::kDegraded);
  EXPECT_NEAR(rt.state().capacity(0), 0.4, 1e-12);
  AuditFleet(rt.state(), rt);
  rt.RunFor(Sec(2));
  AuditFleet(rt.state(), rt);
  rt.RecoverGpu(0);
  EXPECT_EQ(rt.gpu_health(0), GpuHealth::kUp);
  EXPECT_DOUBLE_EQ(rt.state().capacity(0), 1.0);
  AuditFleet(rt.state(), rt);
  // Degrading a down device is ignored (no resurrection by accident).
  rt.FailGpu(0);
  rt.DegradeGpu(0, 0.5);
  EXPECT_EQ(rt.gpu_health(0), GpuHealth::kDown);
  AuditFleet(rt.state(), rt);
}

TEST(DegradedRuntime, ScalerSeesDeratedCapacity)
{
  // Straggling the only instance's GPU shrinks the effective
  // per-instance throughput the lazy scaler compares demand against,
  // so steady traffic that one whole instance absorbs now triggers a
  // scale-out.
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, false), kInvalidInstance);
  const double rps = rt.function(fn).spec.per_instance_rps * 0.6;
  rt.EnableAutoscaler(fn, std::make_unique<scaling::DiluLazyScaler>());
  rt.AttachArrivals(
      fn, std::make_unique<workload::PoissonArrivals>(rps, Rng(7)),
      Sec(60));
  rt.RunFor(Sec(20));
  ASSERT_EQ(rt.DeployedInstanceCount(fn), 1)
      << "whole device should absorb 60% load without scaling";
  rt.StraggleGpu(0, 4.0);  // effective capacity 0.25 < offered 0.6
  // phi_out overloaded samples, plus slack for the 1 Hz sampling.
  rt.RunFor(Sec(scaling::DiluLazyScaler::kPhiOut + 10));
  EXPECT_GT(rt.DeployedInstanceCount(fn), 1)
      << "scaler ignored the degraded capacity signal";
  AuditFleet(rt.state(), rt);
}

// --- checkpointed training restarts ----------------------------------

TEST(Checkpoints, RestartResumesFromLastCheckpoint)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 2;
  s.target_iterations = 2000000;
  s.checkpoint_every = Sec(3);
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  rt.RunFor(Sec(10));
  const auto& f = rt.function(fn);
  const std::int64_t done = f.job->stats().iterations_completed;
  const std::int64_t safe = f.job->checkpointed_iterations();
  ASSERT_GT(done, 0);
  ASSERT_GT(safe, 0) << "no checkpoint fired in 10 s at every=3 s";
  ASSERT_GT(f.job->stats().checkpoints_taken, 0);
  ASSERT_LE(safe, done);

  rt.FailGpu(0);  // one worker dies; the job restarts
  AuditFleet(rt.state(), rt);
  ASSERT_TRUE(f.job != nullptr);
  // Resumed from the snapshot, not from zero; only the tail is lost.
  EXPECT_EQ(f.job->stats().iterations_completed, safe);
  EXPECT_EQ(f.job->stats().resumed_from, safe);
  const auto& m = rt.metrics().function(fn);
  EXPECT_EQ(m.training_restarts, 1);
  EXPECT_EQ(m.lost_iterations, done - safe);

  rt.RunFor(Sec(30));
  EXPECT_GT(f.job->stats().iterations_completed, safe);
  AuditFleet(rt.state(), rt);
}

TEST(Checkpoints, SecondFaultBeforeNewCheckpointReusesBaseline)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 1;
  s.target_iterations = 2000000;
  s.checkpoint_every = Sec(4);
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  rt.RunFor(Sec(10));
  const std::int64_t safe =
      rt.function(fn).job->checkpointed_iterations();
  ASSERT_GT(safe, 0);
  rt.FailGpu(0);
  rt.RecoverGpu(0);
  // Fail again while the restart is still cold (no new checkpoint).
  rt.FailGpu(1);
  AuditFleet(rt.state(), rt);
  EXPECT_EQ(rt.function(fn).job->stats().resumed_from, safe)
      << "second restart must reuse the surviving baseline";
  EXPECT_EQ(rt.metrics().function(fn).training_restarts, 2);
}

TEST(Checkpoints, NoPolicyStillRestartsFromZero)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 1;
  s.target_iterations = 2000000;
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  rt.RunFor(Sec(8));
  const std::int64_t done =
      rt.function(fn).job->stats().iterations_completed;
  ASSERT_GT(done, 0);
  rt.FailGpu(0);
  EXPECT_EQ(rt.function(fn).job->stats().iterations_completed, 0);
  EXPECT_EQ(rt.metrics().function(fn).lost_iterations, done);
  AuditFleet(rt.state(), rt);
}

TEST(Checkpoints, FreshStartAfterCompletionIgnoresStaleBaseline)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 1;
  s.target_iterations = 100;  // ~4 iters/s: still running at the fault
  s.checkpoint_every = Sec(2);
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  rt.RunFor(Sec(6));
  rt.FailGpu(0);  // resume baseline becomes the last checkpoint
  rt.RecoverGpu(0);
  ASSERT_GT(rt.function(fn).resume_iterations, 0);
  rt.RunFor(Sec(60));
  ASSERT_GE(rt.TrainingJct(fn), 0) << "job did not complete";
  // A brand-new run of the same function is not a fault restart: it
  // must begin at iteration zero, not at the consumed checkpoint.
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  EXPECT_EQ(rt.function(fn).job->stats().resumed_from, 0);
  EXPECT_EQ(rt.function(fn).job->stats().iterations_completed, 0);
  AuditFleet(rt.state(), rt);
}

TEST(Checkpoints, PolicyArmableOnTheLiveJob)
{
  cluster::ClusterConfig cfg;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 1;
  s.target_iterations = 2000000;
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  rt.RunFor(Sec(2));
  EXPECT_EQ(rt.function(fn).job->stats().checkpoints_taken, 0);
  rt.SetCheckpointPolicy(fn, Sec(2));  // the chaos verb's entry point
  rt.RunFor(Sec(8));
  EXPECT_GT(rt.function(fn).job->stats().checkpoints_taken, 0);
}

// --- joint recovery bin-packing --------------------------------------

/**
 * One hole that only fits the big displaced instance: joint recovery
 * (best-fit-decreasing) must spend it on the big replacement; greedy
 * (victim order — the small instance was launched first) wastes it on
 * the small one and leaves the big function down until capacity
 * returns. Returns the big function's replaced-instance count.
 */
int
BigInstancesAfterOneHoleFault(const std::string& mode)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 4;
  cfg.recovery = mode;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId small = rt.Deploy(QuotaSpec("bert-base", 0.3, 0.4));
  const FunctionId big = rt.Deploy(QuotaSpec("bert-base", 0.6, 0.8));
  const FunctionId filler1 = rt.Deploy(QuotaSpec("bert-base", 0.35, 0.4));
  const FunctionId filler9 = rt.Deploy(QuotaSpec("bert-base", 0.9, 1.0));
  // GPU 0 hosts the victims; GPU 1 keeps a 0.65 hole; GPUs 2-3 are
  // nearly full (0.1 holes fit neither victim).
  EXPECT_NE(rt.LaunchInferenceOn(small, {0}, false), kInvalidInstance);
  EXPECT_NE(rt.LaunchInferenceOn(big, {0}, false), kInvalidInstance);
  EXPECT_NE(rt.LaunchInferenceOn(filler1, {1}, false), kInvalidInstance);
  EXPECT_NE(rt.LaunchInferenceOn(filler9, {2}, false), kInvalidInstance);
  EXPECT_NE(rt.LaunchInferenceOn(filler9, {3}, false), kInvalidInstance);

  EXPECT_EQ(rt.FailGpu(0), 2);
  AuditFleet(rt.state(), rt);
  EXPECT_EQ(rt.pending_recovery_count(), 1)
      << "exactly one replacement fits the remaining hole";
  EXPECT_EQ(rt.DeployedInstanceCount(small)
                + rt.DeployedInstanceCount(big),
            1);
  return rt.DeployedInstanceCount(big);
}

TEST(JointRecovery, BestFitDecreasingPlacesTheBigInstanceFirst)
{
  EXPECT_EQ(BigInstancesAfterOneHoleFault("joint"), 1)
      << "joint recovery must spend the only big hole on the big fn";
}

TEST(JointRecovery, GreedyVictimOrderWastesTheHole)
{
  EXPECT_EQ(BigInstancesAfterOneHoleFault("greedy"), 0)
      << "greedy control: victim order spends the hole on the small fn";
}

/** Node-failure-during-burst TTR: joint must not be worse than greedy. */
double
NodeFailureBurstMeanTtr(const std::string& recovery)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.seed = 11;
  cfg.recovery = recovery;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId heavy = rt.Deploy(InferenceSpec("llama2-7b"));
  const FunctionId light = rt.Deploy(InferenceSpec("bert-base"));
  rt.LaunchInference(heavy, false);
  rt.LaunchInference(light, false);
  rt.LaunchInference(light, false);
  rt.AttachArrivals(
      light, std::make_unique<workload::PoissonArrivals>(40.0, Rng(13)),
      Sec(80));
  chaos::ScenarioSpec spec("node_failure_burst");
  spec.FailNode(Sec(20), 0).RecoverNode(Sec(50), 0);
  chaos::ChaosEngine engine(&rt, spec);
  engine.Arm();
  rt.RunFor(Sec(80));
  AuditFleet(rt.state(), rt);
  const chaos::ChaosVerdict v = engine.Verdict();
  EXPECT_TRUE(v.AllRecovered()) << recovery;
  return v.mean_ttr_s;
}

TEST(JointRecovery, TtrNotWorseThanGreedyOnNodeFailureBurst)
{
  const double joint = NodeFailureBurstMeanTtr("joint");
  const double greedy = NodeFailureBurstMeanTtr("greedy");
  EXPECT_GT(joint, 0.0);
  EXPECT_LE(joint, greedy + 1e-9);
}

// --- randomized index storm ------------------------------------------

TEST(InvariantStorm, RandomCommitReleaseHealthChurnKeepsIndexesSound)
{
  Rng rng(0xD11u);
  scheduler::ClusterState cs;
  const int kGpus = 24;
  for (int i = 0; i < kGpus; ++i) cs.AddGpu(i / 4);
  std::vector<InstanceId> live;
  InstanceId next = 0;
  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 4) {  // commit a 1-2 shard instance on random GPUs
      const int shards = rng.Uniform() < 0.25 ? 2 : 1;
      std::vector<scheduler::ShardCommit> commits;
      for (int s = 0; s < shards; ++s) {
        const GpuId g =
            static_cast<GpuId>(rng.UniformInt(0, kGpus - 1));
        const double q = rng.Uniform(0.05, 0.5);
        commits.push_back({g, {q, q * 1.5}, rng.Uniform(0.5, 4.0)});
      }
      cs.Commit(next, static_cast<FunctionId>(next % 7), commits);
      live.push_back(next++);
    } else if (op < 7 && !live.empty()) {  // release a random instance
      const std::size_t idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      cs.Release(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    } else {  // random health transition
      const GpuId g = static_cast<GpuId>(rng.UniformInt(0, kGpus - 1));
      const int h = static_cast<int>(rng.UniformInt(0, 3));
      if (h == 0) {
        cs.SetHealth(g, GpuHealth::kUp);
      } else if (h == 1 && cs.gpu(g).schedulable()) {
        cs.SetDegraded(g, rng.Uniform(0.1, 0.99));
      } else if (h == 2) {
        cs.SetHealth(g, GpuHealth::kDraining);
      } else {
        cs.SetHealth(g, GpuHealth::kDown);
      }
    }
    if (step % 100 == 99) AuditState(cs);
  }
  AuditState(cs);
}

}  // namespace
}  // namespace dilu
