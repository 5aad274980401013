/**
 * @file
 * Fault-injection subsystem tests: health-aware placement indexes,
 * failure/drain/recovery semantics, the scenario format, the chaos
 * engine's time-to-recover accounting, and — the acceptance anchor —
 * byte-identical determinism of a node-failure-during-burst run.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_engine.h"
#include "cluster/trace_export.h"
#include "invariant_audit.h"
#include "scaling/coldstart.h"
#include "scaling/global_scaler.h"
#include "scheduler/baseline_schedulers.h"
#include "workload/arrival.h"
#include "workload/azure_traces.h"

namespace dilu {
namespace {

core::FunctionSpec
InferenceSpec(const std::string& model)
{
  core::FunctionSpec s;
  s.model = model;
  s.type = TaskType::kInference;
  return s;
}

// --- health-aware cluster state --------------------------------------

TEST(ClusterStateHealth, MinIdleGpuSkipsUnhealthyDevices)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 4; ++i) cs.AddGpu(0);
  EXPECT_EQ(cs.MinIdleGpu(), 0);
  cs.SetHealth(0, GpuHealth::kDown);
  EXPECT_EQ(cs.MinIdleGpu(), 1);
  cs.SetHealth(1, GpuHealth::kDraining);
  EXPECT_EQ(cs.MinIdleGpu(), 2);
  // Recovery restores the lowest-id answer.
  cs.SetHealth(0, GpuHealth::kUp);
  EXPECT_EQ(cs.MinIdleGpu(), 0);
  EXPECT_EQ(cs.SchedulableGpuCount(), 3);
}

TEST(ClusterStateHealth, UnhealthyActiveGpuLeavesLoadBuckets)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 2; ++i) cs.AddGpu(0);
  cs.Commit(1, /*function=*/0, {{0, {0.4, 0.8}, 10.0}});
  const int bucket = scheduler::ClusterState::LoadBucketFor(0.4);
  ASSERT_EQ(cs.active_bucket(bucket).size(), 1u);
  cs.SetHealth(0, GpuHealth::kDraining);
  EXPECT_TRUE(cs.active_bucket(bucket).empty());
  // Still active (hosting) — just not placeable.
  EXPECT_EQ(cs.ActiveGpuCount(), 1);
  cs.SetHealth(0, GpuHealth::kUp);
  EXPECT_EQ(cs.active_bucket(bucket).size(), 1u);
}

TEST(ClusterStateHealth, ReleaseOnUnhealthyGpuKeepsIndexesConsistent)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 2; ++i) cs.AddGpu(0);
  cs.Commit(1, 0, {{0, {0.4, 0.8}, 10.0}});
  cs.SetHealth(0, GpuHealth::kDown);
  cs.Release(1);  // going idle while down: must not rejoin the heap
  EXPECT_EQ(cs.MinIdleGpu(), 1);
  cs.SetHealth(0, GpuHealth::kUp);
  EXPECT_EQ(cs.MinIdleGpu(), 0);
}

TEST(SchedulerHealth, DiluNeverPlacesOnUnhealthyGpu)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 4; ++i) cs.AddGpu(0);
  cs.SetHealth(0, GpuHealth::kDown);
  cs.SetHealth(1, GpuHealth::kDraining);
  scheduler::DiluScheduler sched;
  for (InstanceId id = 0; id < 6; ++id) {
    scheduler::PlacementRequest req;
    req.function = id % 2;
    // 3 per GPU fit both caps: 3 * 0.3 <= omega, 3 * 0.45 <= gamma.
    req.quota = {0.3, 0.45};
    req.mem_gb = 10.0;
    req.affinity = {req.function};
    const auto placement = sched.Place(req, cs);
    ASSERT_TRUE(placement.ok);
    for (GpuId g : placement.gpus) {
      EXPECT_GE(g, 2) << "placed on unhealthy GPU " << g;
    }
    cs.Commit(id, req.function, {{placement.gpus[0], req.quota, 10.0}});
  }
}

TEST(SchedulerHealth, ExclusiveAndStaticSkipUnhealthyGpus)
{
  scheduler::ClusterState cs;
  for (int i = 0; i < 3; ++i) cs.AddGpu(0);
  cs.SetHealth(0, GpuHealth::kDown);
  scheduler::PlacementRequest req;
  req.function = 0;
  req.quota = {0.5, 0.5};
  req.mem_gb = 5.0;

  scheduler::ExclusiveScheduler ex;
  auto p = ex.Place(req, cs);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);

  scheduler::StaticQuotaScheduler st;
  p = st.Place(req, cs);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);
}

// --- scenario format --------------------------------------------------

TEST(Scenario, BuilderOrdersEventsByTime)
{
  chaos::ScenarioSpec spec("s");
  spec.RecoverNode(Sec(30), 1).FailNode(Sec(10), 1).FailGpu(Sec(10), 2);
  const auto sorted = spec.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].kind, chaos::FaultKind::kNodeFail);
  EXPECT_EQ(sorted[1].kind, chaos::FaultKind::kGpuFail);  // stable tie
  EXPECT_EQ(sorted[2].kind, chaos::FaultKind::kNodeRecover);
}

TEST(Scenario, VerdictPredicatesOfEveryKind)
{
  // Per FaultKind, in enum order: scored as Disruptive (fail_gpu,
  // fail_node, drain_node), Shedding (overload, throttle_admit), Fabric
  // (fail_link, storage_brownout) or not at all.
  const std::string scored = "D-D-D------SSFF";
  ASSERT_EQ(scored.size(),
            static_cast<std::size_t>(chaos::FaultKind::kStorageBrownout) + 1);
  for (std::size_t k = 0; k < scored.size(); ++k) {
    const auto kind = static_cast<chaos::FaultKind>(k);
    EXPECT_EQ(chaos::IsDisruptive(kind), scored[k] == 'D') << k;
    EXPECT_EQ(chaos::IsShedding(kind), scored[k] == 'S') << k;
    EXPECT_EQ(chaos::IsFabric(kind), scored[k] == 'F') << k;
  }
}

TEST(Scenario, TextRoundTrip)
{
  chaos::ScenarioSpec spec("tour");
  spec.FailNode(Sec(10), 1)
      .Surge(Ms(12500), 0, 80.0, Sec(20))
      .InflateColdStarts(Sec(5), 2.5, Sec(30))
      .DrainNode(Sec(40), 2)
      .UndrainNode(Sec(60), 2)
      .FailGpu(Sec(70), 3)
      .RecoverGpu(Sec(80), 3)
      .DegradeGpu(Sec(82), 4, 0.6)
      .StraggleGpu(Sec(84), 5, 2.5)
      .CheckpointEvery(Sec(86), 1, Sec(30))
      .CheckpointEvery(Sec(88), 2, Sec(20), Ms(500))
      .RecoverNode(Sec(90), 1);
  const std::string text = spec.ToText();

  chaos::ScenarioSpec parsed;
  std::string error;
  ASSERT_TRUE(chaos::ScenarioSpec::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.name(), "tour");
  ASSERT_EQ(parsed.events().size(), spec.events().size());
  for (std::size_t i = 0; i < parsed.events().size(); ++i) {
    EXPECT_EQ(parsed.events()[i].at, spec.events()[i].at);
    EXPECT_EQ(parsed.events()[i].kind, spec.events()[i].kind);
    EXPECT_EQ(parsed.events()[i].target, spec.events()[i].target);
    EXPECT_EQ(parsed.events()[i].function, spec.events()[i].function);
    EXPECT_DOUBLE_EQ(parsed.events()[i].magnitude,
                     spec.events()[i].magnitude);
    EXPECT_EQ(parsed.events()[i].duration, spec.events()[i].duration);
    EXPECT_EQ(parsed.events()[i].save_cost, spec.events()[i].save_cost);
  }
  // Serialization is canonical: a second round-trip is identical text.
  EXPECT_EQ(parsed.ToText(), text);
}

TEST(Scenario, ParseAcceptsCommentsAndBlanks)
{
  const std::string text =
      "# a comment\n"
      "\n"
      "scenario smoke\n"
      "at 1500ms fail_gpu 0\n";
  chaos::ScenarioSpec spec;
  ASSERT_TRUE(chaos::ScenarioSpec::Parse(text, &spec, nullptr));
  ASSERT_EQ(spec.events().size(), 1u);
  EXPECT_EQ(spec.events()[0].at, Ms(1500));
}

TEST(Scenario, ParseAcceptsTrailingComments)
{
  // A stray comment after the operands used to be a parse error
  // ("unexpected trailing '#'"); now everything from '#' is stripped,
  // whole-line or mid-line alike.
  const std::string text =
      "scenario smoke   # the name line takes comments too\n"
      "at 10s fail_node 1  # node zero's neighbour dies\n"
      "at 12s surge fn=0 rps=80 for 20s ## emphatic comment\n"
      "   # indented whole-line comment\n";
  chaos::ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(chaos::ScenarioSpec::Parse(text, &spec, &error)) << error;
  EXPECT_EQ(spec.name(), "smoke");
  ASSERT_EQ(spec.events().size(), 2u);
  EXPECT_EQ(spec.events()[0].kind, chaos::FaultKind::kNodeFail);
  EXPECT_EQ(spec.events()[1].kind, chaos::FaultKind::kTrafficSurge);
}

TEST(Scenario, CheckpointSaveCostRoundTrips)
{
  chaos::ScenarioSpec spec("ckpt");
  spec.CheckpointEvery(Sec(1), 0, Sec(30), Ms(500));
  const std::string text = spec.ToText();
  EXPECT_NE(text.find("save=500ms"), std::string::npos) << text;
  chaos::ScenarioSpec parsed;
  std::string error;
  ASSERT_TRUE(chaos::ScenarioSpec::Parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events().size(), 1u);
  EXPECT_EQ(parsed.events()[0].save_cost, Ms(500));
  EXPECT_EQ(parsed.ToText(), text);
  // Operand validation: a non-positive save cost is rejected.
  EXPECT_FALSE(chaos::ScenarioSpec::Parse(
      "at 1s checkpoint_every fn=0 every=5s save=0s", nullptr, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(Scenario, ParseRejectsMalformedLines)
{
  const char* bad[] = {
      "at 10 fail_gpu 0",            // missing time suffix
      "at 10s fail_gpu",             // missing target
      "at 10s fail_gpu -3",          // negative target
      "at 10s explode 1",            // unknown verb
      "at 10s surge fn=0 rps=0 for 5s",   // non-positive rate
      "at 10s surge fn=0 rps=nan for 5s",  // non-finite rate
      "at 10s inflate_coldstart 2.5 for 5s",  // missing x prefix
      "at 10s surge fn=0 rps=10 for 5s extra",  // trailing garbage
      "fail_gpu 0",                  // missing 'at'
      "at 10s degrade_gpu 0 x1.2",   // capacity above 1
      "at 10s straggle 0 x0.8",      // inflation below 1
      "at 10s checkpoint_every fn=0 every=0s",  // non-positive interval
      "at 99999999999999s fail_gpu 0",  // unit scaling would overflow
      "at 10s surge fn=0 rps=10 for 99999999999999s",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(chaos::ScenarioSpec::Parse(text, nullptr, &error))
        << "accepted: " << text;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
}

// --- failure & recovery semantics ------------------------------------

TEST(FaultInjection, GpuFailureDisplacesAndReplaces)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  const InstanceId first = rt.LaunchInference(fn, /*cold=*/false);
  ASSERT_NE(first, kInvalidInstance);
  ASSERT_EQ(rt.gateway().RunningCount(fn), 1);

  const int displaced = rt.FailGpu(0);  // first placement lands on GPU 0
  testing::AuditFleet(rt.state(), rt);
  EXPECT_EQ(displaced, 1);
  EXPECT_EQ(rt.gpu_health(0), GpuHealth::kDown);
  // A replacement exists immediately (cold-starting), off GPU 0.
  ASSERT_EQ(rt.DeployedInstanceCount(fn), 1);
  EXPECT_EQ(rt.metrics().function(fn).recovery_cold_starts, 1);
  EXPECT_EQ(rt.metrics().function(fn).cold_starts, 0);
  const auto& gpus0 = rt.state().gpu(0);
  EXPECT_FALSE(gpus0.active());
  // After the cold start it serves again.
  rt.RunFor(Sec(30));
  EXPECT_EQ(rt.gateway().RunningCount(fn), 1);
  testing::AuditFleet(rt.state(), rt);
  // Idempotent: failing a dead GPU displaces nothing.
  EXPECT_EQ(rt.FailGpu(0), 0);
}

TEST(FaultInjection, FailureWithNoCapacityDefersUntilRecovery)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 1;  // nowhere to re-place
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, false), kInvalidInstance);
  rt.FailGpu(0);
  EXPECT_EQ(rt.DeployedInstanceCount(fn), 0);
  EXPECT_EQ(rt.pending_recovery_count(), 1);
  rt.RunFor(Sec(5));  // retries tick but cannot place
  EXPECT_EQ(rt.pending_recovery_count(), 1);
  rt.RecoverGpu(0);   // capacity returns: replacement launches
  EXPECT_EQ(rt.pending_recovery_count(), 0);
  EXPECT_EQ(rt.DeployedInstanceCount(fn), 1);
  rt.RunFor(Sec(30));
  EXPECT_EQ(rt.gateway().RunningCount(fn), 1);
}

TEST(FaultInjection, NodeFailureKillsEveryResidentGpu)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId a = rt.Deploy(InferenceSpec("roberta-large"));
  const FunctionId b = rt.Deploy(InferenceSpec("resnet152"));
  ASSERT_NE(rt.LaunchInference(a, false), kInvalidInstance);
  ASSERT_NE(rt.LaunchInference(b, false), kInvalidInstance);
  const int displaced = rt.FailNode(0);
  testing::AuditFleet(rt.state(), rt);
  EXPECT_EQ(displaced, 2);
  EXPECT_EQ(rt.node(0).health, GpuHealth::kDown);
  for (GpuId g : rt.node(0).gpus) {
    EXPECT_EQ(rt.gpu_health(g), GpuHealth::kDown);
  }
  // Replacements land on node 1.
  rt.RunFor(Sec(30));
  EXPECT_EQ(rt.gateway().RunningCount(a), 1);
  EXPECT_EQ(rt.gateway().RunningCount(b), 1);
  for (GpuId g : rt.node(0).gpus) {
    EXPECT_FALSE(rt.state().gpu(g).active());
  }
  testing::AuditFleet(rt.state(), rt);
}

TEST(FaultInjection, RecoverNodeHealsPerGpuFaults)
{
  // Per-GPU faults leave the node itself up; recover_node must still
  // return every GPU of the node to service.
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  rt.FailGpu(0);
  rt.DegradeGpu(1, 0.5);
  EXPECT_EQ(rt.state().SchedulableGpuCount(), 7);
  rt.RecoverNode(0);
  EXPECT_EQ(rt.gpu_health(0), GpuHealth::kUp);
  EXPECT_EQ(rt.gpu_health(1), GpuHealth::kUp);
  EXPECT_EQ(rt.state().SchedulableGpuCount(), 8);
  ASSERT_FALSE(rt.metrics().faults().empty());
  EXPECT_EQ(rt.metrics().faults().back().kind, "node_recover");
  // Nothing left to heal: no further record.
  const std::size_t logged = rt.metrics().faults().size();
  rt.RecoverNode(0);
  rt.RecoverNode(1);
  EXPECT_EQ(rt.metrics().faults().size(), logged);
  testing::AuditFleet(rt.state(), rt);
}

TEST(FaultInjection, DrainMigratesInstancesOffTheNode)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, false), kInvalidInstance);
  const int migrated = rt.DrainNode(0);
  testing::AuditFleet(rt.state(), rt);
  EXPECT_EQ(migrated, 1);
  EXPECT_EQ(rt.node(0).health, GpuHealth::kDraining);
  // The replacement pays a recovery cold start on node 1.
  EXPECT_EQ(rt.metrics().function(fn).recovery_cold_starts, 1);
  for (GpuId g : rt.node(0).gpus) {
    EXPECT_FALSE(rt.state().gpu(g).active());
  }
  rt.RunFor(Sec(30));
  EXPECT_EQ(rt.gateway().RunningCount(fn), 1);
  // Undrain restores placement eligibility.
  rt.UndrainNode(0);
  EXPECT_EQ(rt.node(0).health, GpuHealth::kUp);
  EXPECT_EQ(rt.state().SchedulableGpuCount(),
            static_cast<int>(rt.state().gpu_count()));
  testing::AuditFleet(rt.state(), rt);
}

TEST(FaultInjection, TrainingJobRestartsAfterWorkerLoss)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 2;
  s.target_iterations = 2000000;  // effectively unbounded
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  rt.RunFor(Sec(5));
  const auto before =
      rt.function(fn).job->stats().iterations_completed;
  EXPECT_GT(before, 0);

  rt.FailGpu(0);  // one worker dies; lockstep job cannot continue
  ASSERT_TRUE(rt.function(fn).job != nullptr);
  // Restarted from scratch: no checkpoint policy was armed, so the
  // resume baseline is iteration zero (tests/invariants_test.cc covers
  // the checkpointed path).
  EXPECT_EQ(rt.function(fn).job->stats().iterations_completed, 0);
  EXPECT_EQ(rt.DeployedInstanceCount(fn), 2);
  EXPECT_EQ(rt.metrics().function(fn).recovery_cold_starts, 2);
  rt.RunFor(Sec(30));
  EXPECT_GT(rt.function(fn).job->stats().iterations_completed, 0);
}

TEST(FaultInjection, CheckpointSaveCostPausesTrainingAndIsAccounted)
{
  // Identical training rigs, armed through the scenario verb; one pays
  // 500 ms per snapshot. The pause must surface in the per-function
  // metrics and come out of iteration throughput.
  struct Outcome {
    std::int64_t iterations = 0;
    int checkpoints = 0;
    TimeUs pause = 0;
  };
  const auto run = [](TimeUs save_cost) {
    cluster::ClusterConfig cfg;
    cfg.nodes = 1;
    cluster::ClusterRuntime rt(cfg);
    core::FunctionSpec s;
    s.model = "bert-base";
    s.type = TaskType::kTraining;
    s.workers = 1;
    s.target_iterations = 2000000;  // effectively unbounded
    const FunctionId fn = rt.Deploy(s);
    EXPECT_TRUE(rt.StartTraining(fn, /*cold=*/false));
    chaos::ScenarioSpec spec("save_cost");
    spec.CheckpointEvery(Sec(1), fn, Sec(2), save_cost);
    chaos::ChaosEngine engine(&rt, spec);
    engine.Arm();
    rt.RunFor(Sec(30));
    const cluster::FunctionMetrics& m = rt.metrics().function(fn);
    Outcome o;
    o.iterations = rt.function(fn).job->stats().iterations_completed;
    o.checkpoints = m.checkpoints;
    o.pause = m.checkpoint_pause;
    return o;
  };
  const Outcome free_save = run(0);
  const Outcome costly_save = run(Ms(500));
  EXPECT_GT(free_save.checkpoints, 0);
  EXPECT_GT(costly_save.checkpoints, 0);
  EXPECT_EQ(free_save.pause, 0);
  EXPECT_EQ(costly_save.pause, costly_save.checkpoints * Ms(500));
  EXPECT_LT(costly_save.iterations, free_save.iterations);
}

TEST(FaultInjection, FaultDuringSaveRestartsFromTheFreshCheckpoint)
{
  // The snapshot is durable the moment it is counted: a failure inside
  // the save pause resumes from the just-taken checkpoint, losing no
  // iterations.
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 1;
  s.target_iterations = 2000000;
  s.checkpoint_every = Sec(2);
  s.checkpoint_save_cost = Sec(3);  // long save: easy to hit mid-pause
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));
  // Run until at least one checkpoint fired, then land inside a pause.
  rt.RunFor(Sec(2) + Ms(2500));
  const auto& job_before = *rt.function(fn).job;
  ASSERT_GT(job_before.stats().checkpoints_taken, 0);
  const std::int64_t safe = job_before.checkpointed_iterations();
  ASSERT_GT(safe, 0);

  rt.FailGpu(0);
  EXPECT_EQ(rt.metrics().function(fn).training_restarts, 1);
  // The restart resumes exactly at the checkpointed baseline.
  EXPECT_EQ(rt.function(fn).job->stats().resumed_from, safe);
  rt.RunFor(Sec(30));
  EXPECT_GT(rt.function(fn).job->stats().iterations_completed, safe);
}

TEST(FaultInjection, LastInstanceFailureRequeuesBehindReplacement)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, false), kInvalidInstance);
  // A deterministic backlog: 8 requests queued at the only instance.
  std::vector<std::unique_ptr<workload::Request>> reqs;
  for (int i = 0; i < 8; ++i) {
    auto r = std::make_unique<workload::Request>();
    r->id = i;
    r->function = fn;
    r->arrival = rt.now();
    ASSERT_TRUE(rt.gateway().Dispatch(r.get()));
    reqs.push_back(std::move(r));
  }

  rt.FailGpu(0);  // kills the only instance
  // The replacement launches in the same instant, so the surrendered
  // backlog re-homes behind its cold start instead of dropping.
  const auto& m = rt.metrics().function(fn);
  EXPECT_EQ(m.dropped, 0);
  rt.RunFor(Sec(30));
  EXPECT_EQ(m.dropped, 0);
  for (const auto& r : reqs) {
    EXPECT_TRUE(r->done);
    EXPECT_FALSE(r->dropped);
  }
  EXPECT_GE(m.completed, 8);
}

TEST(ChaosEngine, OverlappingInflationWindowsDoNotResetEarly)
{
  cluster::ClusterConfig cfg;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));

  chaos::ScenarioSpec spec("overlap");
  spec.InflateColdStarts(Sec(1), 3.0, Sec(10))   // ends at 11 s
      .InflateColdStarts(Sec(5), 5.0, Sec(20));  // ends at 25 s
  chaos::ChaosEngine engine(&rt, spec);
  engine.Arm();

  rt.RunFor(Sec(12));
  // The first window's end must not restore nominal inside the second.
  EXPECT_DOUBLE_EQ(rt.coldstart_scale(), 5.0);
  rt.RunFor(Sec(15));  // past 25 s
  EXPECT_DOUBLE_EQ(rt.coldstart_scale(), 1.0);
  (void)fn;
}

TEST(ChaosEngine, TrainingTtrIncludesRestartColdStart)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec s;
  s.model = "bert-base";
  s.type = TaskType::kTraining;
  s.workers = 2;
  s.target_iterations = 2000000;
  const FunctionId fn = rt.Deploy(s);
  ASSERT_TRUE(rt.StartTraining(fn, /*cold=*/false));

  chaos::ScenarioSpec spec("train-fault");
  spec.FailGpu(Sec(5), 0);
  chaos::ChaosEngine engine(&rt, spec);
  engine.Arm();
  rt.RunFor(Sec(60));

  ASSERT_EQ(engine.outcomes().size(), 1u);
  const auto& o = engine.outcomes()[0];
  ASSERT_GE(o.recovered_at, 0);
  // Healing spans the restarted workers' cold start, not just the
  // control-plane re-placement.
  const TimeUs cold = scaling::ColdDuration(models::GetModel("bert-base"));
  EXPECT_GE(o.TimeToRecover(), cold);
}

TEST(ChaosEngine, UnrelatedScaleInDoesNotBlockHealDetection)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  // Exclusive placement isolates the fault: one instance per GPU, so
  // failing GPU 0 touches only the victim.
  cfg.scheduler = "exclusive";
  cfg.sharing = "static";
  cfg.quota_mode = "full";
  cluster::ClusterRuntime rt(cfg);
  const FunctionId victim = rt.Deploy(InferenceSpec("bert-base"));
  const FunctionId bystander = rt.Deploy(InferenceSpec("resnet152"));
  ASSERT_NE(rt.LaunchInference(victim, false), kInvalidInstance);
  // The bystander starts with two instances, then loses one to a
  // plain scale-in after the fault — which must not keep the fault
  // marked unrecovered.
  ASSERT_NE(rt.LaunchInference(bystander, false), kInvalidInstance);
  ASSERT_NE(rt.LaunchInference(bystander, false), kInvalidInstance);

  // The victim's instance lands on GPU 0 (first placement).
  chaos::ScenarioSpec spec("victim-only");
  spec.FailGpu(Sec(5), 0);
  chaos::ChaosEngine engine(&rt, spec);
  engine.Arm();
  rt.simulation().queue().ScheduleAt(Sec(6),
                                     [&] { rt.ScaleInOne(bystander); });
  rt.RunFor(Sec(60));

  ASSERT_EQ(engine.outcomes().size(), 1u);
  EXPECT_GE(engine.outcomes()[0].recovered_at, 0)
      << "bystander scale-in blocked heal detection";
}

TEST(FaultInjection, ColdStartInflationScalesDuration)
{
  cluster::ClusterConfig cfg;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  const InstanceId nominal = rt.LaunchInference(fn, /*cold=*/true);
  rt.set_coldstart_scale(3.0);
  const InstanceId inflated = rt.LaunchInference(fn, /*cold=*/true);
  rt.RunFor(Sec(120));
  const TimeUs nominal_dur = rt.instance(nominal)->ready_time();
  const TimeUs inflated_dur = rt.instance(inflated)->ready_time();
  EXPECT_EQ(inflated_dur, nominal_dur * 3);
}

// --- chaos engine ------------------------------------------------------

TEST(ChaosEngine, MeasuresTimeToRecover)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, false), kInvalidInstance);
  rt.AttachArrivals(
      fn, std::make_unique<workload::PoissonArrivals>(20.0, Rng(3)),
      Sec(60));

  chaos::ScenarioSpec spec("ttr");
  spec.FailGpu(Sec(10), 0);
  chaos::ChaosEngine engine(&rt, spec);
  engine.Arm();
  rt.RunFor(Sec(60));

  ASSERT_EQ(engine.outcomes().size(), 1u);
  const auto& o = engine.outcomes()[0];
  EXPECT_TRUE(o.injected);
  EXPECT_EQ(o.displaced, 1);
  ASSERT_GE(o.recovered_at, 0);
  // Recovery must at least span the replacement's cold start.
  const TimeUs cold = scaling::ColdDuration(models::GetModel("bert-base"));
  EXPECT_GE(o.TimeToRecover(), cold);
  EXPECT_LE(o.TimeToRecover(), cold + Sec(2));

  const auto v = engine.Verdict();
  EXPECT_EQ(v.injected, 1);
  EXPECT_EQ(v.disruptive, 1);
  EXPECT_TRUE(v.AllRecovered());
  EXPECT_GT(v.mean_ttr_s, 0.0);
}

TEST(ChaosEngine, NonDisruptiveEventsNeedNoRecovery)
{
  cluster::ClusterConfig cfg;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("bert-base"));
  ASSERT_NE(rt.LaunchInference(fn, false), kInvalidInstance);

  chaos::ScenarioSpec spec("surge-only");
  spec.Surge(Sec(5), fn, 30.0, Sec(10));
  chaos::ChaosEngine engine(&rt, spec);
  engine.Arm();
  rt.RunFor(Sec(30));

  const auto v = engine.Verdict();
  EXPECT_EQ(v.injected, 1);
  EXPECT_EQ(v.disruptive, 0);
  // The surge actually delivered traffic.
  EXPECT_GT(rt.metrics().function(fn).completed, 100);
}

/**
 * Acceptance anchor: the same node-failure-during-burst scenario —
 * with degraded-GPU, straggler and checkpointed-training events armed
 * alongside the failure — run twice with the same seed produces
 * byte-identical metrics and trace output.
 */
std::string
NodeFailureBurstTrace(std::uint64_t seed)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.seed = seed;
  cluster::ClusterRuntime rt(cfg);
  const FunctionId fn = rt.Deploy(InferenceSpec("resnet152"));
  rt.LaunchInference(fn, false);
  rt.LaunchInference(fn, false);
  rt.EnableAutoscaler(fn, std::make_unique<scaling::DiluLazyScaler>());
  core::FunctionSpec train;
  train.model = "bert-base";
  train.type = TaskType::kTraining;
  train.workers = 2;
  train.target_iterations = 2000000;
  const FunctionId job = rt.Deploy(train);
  EXPECT_TRUE(rt.StartTraining(job, /*cold=*/false));
  workload::BurstySpec bursty;
  bursty.duration_s = 90;
  bursty.base_rps = 80.0;
  rt.AttachArrivals(fn,
                    std::make_unique<workload::EnvelopeArrivals>(
                        workload::BuildBurstyTrace(bursty),
                        Rng(seed + 2)),
                    Sec(90));

  chaos::ScenarioSpec spec("node_failure_burst");
  spec.CheckpointEvery(Sec(5), job, Sec(10))
      .DegradeGpu(Sec(20), 8, 0.5)
      .StraggleGpu(Sec(25), 9, 2.0)
      .FailNode(Sec(30), 0)
      .Surge(Sec(35), fn, 40.0, Sec(20))
      .RecoverNode(Sec(70), 0)
      .RecoverGpu(Sec(75), 8)
      .RecoverGpu(Sec(75), 9);
  chaos::ChaosEngine engine(&rt, spec);
  engine.Arm();
  rt.RunFor(Sec(95));
  testing::AuditFleet(rt.state(), rt);

  std::string trace = cluster::ExportClusterSamples(rt.metrics()).ToString();
  trace += cluster::ExportFunctionMetrics(rt.metrics()).ToString();
  trace += cluster::ExportFaultLog(rt.metrics()).ToString();
  for (const auto& o : engine.outcomes()) {
    trace += std::to_string(o.recovered_at) + ","
        + std::to_string(o.displaced) + "\n";
  }
  return trace;
}

TEST(ChaosEngine, NodeFailureDuringBurstIsDeterministic)
{
  const std::string run1 = NodeFailureBurstTrace(11);
  const std::string run2 = NodeFailureBurstTrace(11);
  EXPECT_EQ(run1, run2);
  // The trace is not trivially empty: faults and drops were recorded,
  // and the degraded/checkpoint verbs actually fired.
  EXPECT_NE(run1.find("node_fail"), std::string::npos);
  EXPECT_NE(run1.find("node_recover"), std::string::npos);
  EXPECT_NE(run1.find("gpu_degrade"), std::string::npos);
  EXPECT_NE(run1.find("gpu_straggle"), std::string::npos);
  EXPECT_NE(run1.find("checkpoint_policy"), std::string::npos);
}

// --- gateway / scaler fault behaviors --------------------------------

TEST(RecoveryScaling, LazyScalerSuppressesScaleInDuringHoldoff)
{
  using scaling::DiluLazyScaler;
  DiluLazyScaler scaler;
  // Two instances, load far below one instance's capacity: scale-in
  // fires after phi_in samples without a holdoff...
  for (int i = 0; i < DiluLazyScaler::kPhiIn - 1; ++i) {
    scaler.Decide(1.0, 2, 100.0);
  }
  EXPECT_EQ(scaler.Decide(1.0, 2, 100.0), 1);
  // ... but not while a recovery launch is warming up.
  scaler.OnRecoveryLaunch();
  for (int i = 0; i < DiluLazyScaler::kRecoveryHoldoffS; ++i) {
    EXPECT_EQ(scaler.Decide(1.0, 2, 100.0), 2) << "sample " << i;
  }
  // Holdoff over: the stale-window suppression ends.
  for (int i = 0; i < DiluLazyScaler::kPhiIn; ++i) {
    scaler.Decide(1.0, 2, 100.0);
  }
  EXPECT_EQ(scaler.Decide(1.0, 2, 100.0), 1);
}

}  // namespace
}  // namespace dilu
