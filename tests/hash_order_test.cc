/**
 * @file
 * Hash-order independence regression test (dilu-lint's runtime twin).
 *
 * The simulator keeps two unordered_map indexes on hot paths:
 * ClusterState::placements_ and the nested ClusterState::residency_
 * (function -> gpu -> shard count). Their iteration order depends on
 * the bucket count, which libstdc++ changes on rehash — the same
 * perturbation a different hash seed would cause. The determinism
 * contract says none of that order may reach any observable output,
 * which the audit established by inspection (point queries only, plus
 * GpusHosting's sort drain). This test pins the claim mechanically:
 * both indexes are rehashed to wildly different bucket counts —
 * including mid-simulation — and queries and trace exports must be
 * byte-identical to the unperturbed run.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_engine.h"
#include "cluster/trace_export.h"
#include "scaling/global_scaler.h"
#include "scheduler/gpu_state.h"
#include "workload/arrival.h"

namespace dilu {
namespace {

// ---------------------------------------------------------------------
// Direct ClusterState comparison: two states receive the identical
// operation sequence; B is additionally rehashed between every step.

scheduler::ShardCommit
Shard(GpuId gpu, double request, double limit, double mem_gb)
{
  scheduler::ShardCommit s;
  s.gpu = gpu;
  s.quota.request = request;
  s.quota.limit = limit;
  s.mem_gb = mem_gb;
  return s;
}

/** Every hash-backed query, snapshotted into one comparable record. */
struct StateSnapshot {
  std::vector<GpuId> hosting_dedup;
  std::vector<GpuId> hosting_raw;
  double sm_frag = 0.0;
  double mem_frag = 0.0;
  double capacity_factor_1 = 0.0;
  double capacity_factor_2 = 0.0;
  GpuId min_idle = kInvalidGpu;
  int active_count = 0;

  bool operator==(const StateSnapshot& o) const
  {
    return hosting_dedup == o.hosting_dedup && hosting_raw == o.hosting_raw
           && sm_frag == o.sm_frag && mem_frag == o.mem_frag
           && capacity_factor_1 == o.capacity_factor_1
           && capacity_factor_2 == o.capacity_factor_2
           && min_idle == o.min_idle && active_count == o.active_count;
  }
};

StateSnapshot
Snapshot(const scheduler::ClusterState& state)
{
  StateSnapshot snap;
  const std::vector<FunctionId> fns = {0, 1, 2, 3};
  snap.hosting_dedup = state.GpusHosting(fns);
  state.GpusHosting(fns, &snap.hosting_raw);
  snap.sm_frag = state.SmFragmentation();
  snap.mem_frag = state.MemoryFragmentation();
  snap.capacity_factor_1 = state.InstanceCapacityFactor(1);
  snap.capacity_factor_2 = state.InstanceCapacityFactor(2);
  snap.min_idle = state.MinIdleGpu();
  snap.active_count = state.ActiveGpuCount();
  return snap;
}

TEST(HashOrder, ClusterStateQueriesSurviveRehash)
{
  scheduler::ClusterState a(8);
  scheduler::ClusterState b(8);

  // Interleaved commits/releases across functions and GPUs; after every
  // mutation B's indexes are rehashed to a different bucket count, so
  // its iteration order diverges from A's as hard as any hash seed
  // could make it.
  const std::size_t kBuckets[] = {1024, 7, 4096, 1, 257};
  int step = 0;
  auto perturb = [&] {
    b.PerturbHashOrderForTests(kBuckets[static_cast<std::size_t>(step) % 5]);
    ++step;
  };

  InstanceId next = 1;
  for (FunctionId fn = 0; fn < 4; ++fn) {
    for (int copy = 0; copy < 3; ++copy) {
      const GpuId gpu = (fn * 3 + copy) % 8;
      const std::vector<scheduler::ShardCommit> shards = {
          Shard(gpu, 0.2, 0.5, 4.0),
          Shard((gpu + 1) % 8, 0.1, 0.3, 2.0),
      };
      a.Commit(next, fn, shards);
      b.Commit(next, fn, shards);
      ++next;
      perturb();
      EXPECT_EQ(Snapshot(a), Snapshot(b)) << "after commit " << (next - 1);
    }
  }
  a.SetDegraded(3, 0.5);
  b.SetDegraded(3, 0.5);
  perturb();
  EXPECT_EQ(Snapshot(a), Snapshot(b));
  for (InstanceId id : {2, 5, 7, 11}) {
    a.Release(id);
    b.Release(id);
    perturb();
    EXPECT_EQ(Snapshot(a), Snapshot(b)) << "after release " << id;
  }
}

// ---------------------------------------------------------------------
// End to end: the golden chaos scenario, run clean and run with
// mid-simulation rehash events, must export byte-identical traces.

/** The trace_golden_test scenario, with optional mid-run perturbation. */
struct ScenarioRun {
  std::string faults_csv;
  std::string samples_csv;

  explicit ScenarioRun(bool perturb)
  {
    cluster::ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.seed = 2026;
    auto rt = std::make_unique<cluster::ClusterRuntime>(cfg);

    core::FunctionSpec serve;
    serve.model = "resnet152";
    serve.type = TaskType::kInference;
    const FunctionId fn = rt->Deploy(serve);
    rt->LaunchInference(fn, /*cold=*/false);
    rt->LaunchInference(fn, /*cold=*/false);
    rt->EnableAutoscaler(fn,
                         std::make_unique<scaling::DiluLazyScaler>());
    rt->AttachArrivals(
        fn, std::make_unique<workload::PoissonArrivals>(40.0, Rng(5)),
        Sec(60));

    core::FunctionSpec train;
    train.model = "bert-base";
    train.type = TaskType::kTraining;
    train.workers = 2;
    train.target_iterations = 2000000;
    const FunctionId job = rt->Deploy(train);
    EXPECT_TRUE(rt->StartTraining(job, /*cold=*/false));

    chaos::ScenarioSpec spec;
    spec.CheckpointEvery(Sec(1), job, Sec(5))
        .DegradeGpu(Sec(10), 8, 0.5)
        .StraggleGpu(Sec(15), 9, 2.5)
        .FailNode(Sec(20), 0)
        .RecoverNode(Sec(40), 0)
        .RecoverGpu(Sec(45), 8)
        .RecoverGpu(Sec(45), 9);
    chaos::ChaosEngine engine(rt.get(), spec);
    engine.Arm();

    if (perturb) {
      // Rehash the scheduler's indexes at awkward moments: mid-burst,
      // right before the node failure, during the degraded window and
      // after recovery. Tests may drive the queue directly.
      cluster::ClusterRuntime* raw = rt.get();
      const std::size_t buckets[] = {4096, 3, 1024, 13};
      const TimeUs when[] = {Sec(5), Sec(19), Sec(30), Sec(50)};
      for (int i = 0; i < 4; ++i) {
        const std::size_t n = buckets[i];
        raw->simulation().queue().ScheduleAt(when[i], [raw, n] {
          raw->state().PerturbHashOrderForTests(n);
        });
      }
    }
    rt->RunFor(Sec(60));

    faults_csv = cluster::ExportFaultLog(rt->metrics()).ToString();
    samples_csv =
        cluster::ExportClusterSamples(rt->metrics()).ToString();
  }
};

TEST(HashOrder, TraceExportsSurviveMidRunRehash)
{
  ScenarioRun clean(/*perturb=*/false);
  ScenarioRun shaken(/*perturb=*/true);
  EXPECT_EQ(clean.faults_csv, shaken.faults_csv);
  EXPECT_EQ(clean.samples_csv, shaken.samples_csv);
  // And the scenario is rich enough to mean something:
  EXPECT_NE(clean.faults_csv.find("node_fail"), std::string::npos);
  EXPECT_NE(clean.samples_csv.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace dilu
