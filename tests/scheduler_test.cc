/** @file Unit tests for Algorithm 1 and the baseline schedulers. */
#include <gtest/gtest.h>

#include "common/random.h"
#include "invariant_audit.h"
#include "models/model_catalog.h"
#include "profiler/profile_cache.h"
#include "scheduler/baseline_schedulers.h"
#include "scheduler/gpu_state.h"
#include "scheduler/scheduler.h"

namespace dilu::scheduler {
namespace {

PlacementRequest MakeRequest(FunctionId fn, double req, double lim,
                             double mem, int gpus = 1)
{
  PlacementRequest r;
  r.function = fn;
  r.quota = {req, lim};
  r.mem_gb = mem;
  r.gpus_needed = gpus;
  return r;
}

TEST(ClusterState, CommitAndRelease)
{
  ClusterState state(2);
  state.Commit(1, 7, {{0, {0.3, 0.6}, 10.0}});
  EXPECT_DOUBLE_EQ(state.gpu(0).req_sum, 0.3);
  EXPECT_DOUBLE_EQ(state.gpu(0).lim_sum, 0.6);
  EXPECT_DOUBLE_EQ(state.gpu(0).mem_used, 10.0);
  EXPECT_EQ(state.ActiveGpuCount(), 1);
  state.Release(1);
  EXPECT_DOUBLE_EQ(state.gpu(0).req_sum, 0.0);
  EXPECT_EQ(state.ActiveGpuCount(), 0);
}

TEST(ClusterState, FragmentationMetrics)
{
  ClusterState state(2);
  state.Commit(1, 7, {{0, {0.4, 0.8}, 10.0}});
  // Only GPU 0 active: SM frag = 0.6, mem frag = 30/40.
  EXPECT_NEAR(state.SmFragmentation(), 0.6, 1e-9);
  EXPECT_NEAR(state.MemoryFragmentation(), 0.75, 1e-9);
}

TEST(ClusterState, ResidencyIndexTracksCommitAndRelease)
{
  ClusterState state(4);
  // fn 7: instance 1 on GPU 0, instance 2 spanning GPUs 1+2.
  state.Commit(1, 7, {{0, {0.2, 0.4}, 4.0}});
  state.Commit(2, 7, {{1, {0.1, 0.2}, 4.0}, {2, {0.1, 0.2}, 4.0}});
  state.Commit(3, 8, {{1, {0.2, 0.4}, 4.0}});
  EXPECT_EQ(state.GpusHosting({7}), (std::vector<GpuId>{0, 1, 2}));
  EXPECT_EQ(state.GpusHosting({8}), (std::vector<GpuId>{1}));
  EXPECT_EQ(state.GpusHosting({7, 8}), (std::vector<GpuId>{0, 1, 2}));
  EXPECT_TRUE(state.GpusHosting({99}).empty());

  state.Release(2);
  EXPECT_EQ(state.GpusHosting({7}), (std::vector<GpuId>{0}));
  // GPU 1 still hosts fn 8 -> stays active; GPU 2 went idle.
  EXPECT_EQ(state.ActiveGpuCount(), 2);
}

TEST(ClusterState, ResidencyIndexCountsPerGpuInstances)
{
  ClusterState state(2);
  // Two instances of the same function on the same GPU: releasing one
  // must keep the GPU listed until the second leaves too.
  state.Commit(1, 7, {{0, {0.2, 0.4}, 4.0}});
  state.Commit(2, 7, {{0, {0.2, 0.4}, 4.0}});
  state.Release(1);
  EXPECT_EQ(state.GpusHosting({7}), (std::vector<GpuId>{0}));
  state.Release(2);
  EXPECT_TRUE(state.GpusHosting({7}).empty());
  EXPECT_EQ(state.ActiveGpuCount(), 0);
}

TEST(ClusterState, ActiveIdleListsAndMinIdleStayConsistent)
{
  ClusterState state(6);
  EXPECT_EQ(state.MinIdleGpu(), 0);
  state.Commit(1, 7, {{0, {0.2, 0.4}, 4.0}});
  state.Commit(2, 8, {{3, {0.2, 0.4}, 4.0}});
  EXPECT_EQ(state.ActiveGpuCount(), 2);
  EXPECT_EQ(state.active_gpus().size() + state.idle_gpus().size(), 6u);
  EXPECT_EQ(state.MinIdleGpu(), 1);
  state.Commit(3, 9, {{1, {0.2, 0.4}, 4.0}});
  EXPECT_EQ(state.MinIdleGpu(), 2);
  state.Release(1);  // GPU 0 idle again
  EXPECT_EQ(state.MinIdleGpu(), 0);
  EXPECT_EQ(state.ActiveGpuCount(), 2);
  dilu::testing::AuditState(state);
}

TEST(DiluScheduler, PacksOntoActiveGpuFirst)
{
  ClusterState state(4);
  DiluScheduler sched;
  auto p1 = sched.Place(MakeRequest(1, 0.4, 0.8, 10.0), state);
  ASSERT_TRUE(p1.ok);
  state.Commit(100, 1, {{p1.gpus[0], {0.4, 0.8}, 10.0}});
  // Second function fits in the fragment: must share GPU 0.
  auto p2 = sched.Place(MakeRequest(2, 0.3, 0.6, 8.0), state);
  ASSERT_TRUE(p2.ok);
  EXPECT_EQ(p2.gpus[0], p1.gpus[0]);
}

TEST(DiluScheduler, RespectsOmegaCap)
{
  ClusterState state(2);
  DiluScheduler sched;  // omega = 1.0
  state.Commit(100, 1, {{0, {0.7, 0.9}, 10.0}});
  // request 0.4 would push req_sum to 1.1 > omega: must pick GPU 1.
  auto p = sched.Place(MakeRequest(2, 0.4, 0.6, 8.0), state);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);
}

TEST(DiluScheduler, RespectsGammaCap)
{
  ClusterState state(2);
  DiluSchedulerConfig cfg;
  cfg.gamma = 1.5;
  DiluScheduler sched(cfg);
  state.Commit(100, 1, {{0, {0.3, 1.0}, 10.0}});
  // limit 0.6 would push lim_sum to 1.6 > gamma.
  auto p = sched.Place(MakeRequest(2, 0.2, 0.6, 8.0), state);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);
}

TEST(DiluScheduler, RespectsMemoryCapacity)
{
  ClusterState state(2);
  DiluScheduler sched;
  state.Commit(100, 1, {{0, {0.2, 0.4}, 30.0}});
  auto p = sched.Place(MakeRequest(2, 0.2, 0.4, 16.0), state);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);  // 30 + 16 > 40 on GPU 0
}

TEST(DiluScheduler, WorkloadAffinityPreferred)
{
  ClusterState state(3);
  DiluScheduler sched;
  // Function 1 resident on GPU 1 (more loaded); function 9 on GPU 0.
  state.Commit(100, 9, {{0, {0.2, 0.4}, 8.0}});
  state.Commit(101, 1, {{1, {0.5, 0.9}, 10.0}});
  PlacementRequest req = MakeRequest(2, 0.3, 0.5, 8.0);
  req.affinity = {1};  // affine with function 1
  auto p = sched.Place(req, state);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);
}

TEST(DiluScheduler, DisableAffinityFallsBackToBestFit)
{
  ClusterState state(3);
  DiluSchedulerConfig cfg;
  cfg.workload_affinity = false;
  DiluScheduler sched(cfg);
  state.Commit(100, 9, {{0, {0.6, 0.9}, 20.0}});
  state.Commit(101, 1, {{1, {0.2, 0.4}, 6.0}});
  PlacementRequest req = MakeRequest(2, 0.3, 0.5, 8.0);
  req.affinity = {1};
  auto p = sched.Place(req, state);
  ASSERT_TRUE(p.ok);
  // Best fit by weighted fragmentation picks the fuller GPU 0.
  EXPECT_EQ(p.gpus[0], 0);
}

TEST(DiluScheduler, LargeModelUsesWorstFitAcrossGpus)
{
  ClusterState state(4);
  DiluScheduler sched;
  state.Commit(100, 1, {{0, {0.3, 0.5}, 30.0}});  // little memory left
  state.Commit(101, 2, {{1, {0.3, 0.5}, 5.0}});   // lots of memory left
  PlacementRequest req = MakeRequest(3, 0.1, 0.2, 8.0, /*gpus=*/2);
  req.large_model = true;
  auto p = sched.Place(req, state);
  ASSERT_TRUE(p.ok);
  ASSERT_EQ(p.gpus.size(), 2u);
  EXPECT_NE(p.gpus[0], p.gpus[1]);
  // Worst fit prefers the GPU with the most free memory first.
  EXPECT_EQ(p.gpus[0], 1);
}

TEST(DiluScheduler, FailsWhenClusterFull)
{
  ClusterState state(1);
  DiluScheduler sched;
  state.Commit(100, 1, {{0, {0.9, 1.0}, 38.0}});
  auto p = sched.Place(MakeRequest(2, 0.5, 0.8, 8.0), state);
  EXPECT_FALSE(p.ok);
}

TEST(DiluScheduler, MultiShardOnDistinctGpus)
{
  ClusterState state(4);
  DiluScheduler sched;
  auto p = sched.Place(MakeRequest(1, 0.1, 0.2, 4.0, /*gpus=*/4), state);
  ASSERT_TRUE(p.ok);
  ASSERT_EQ(p.gpus.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_NE(p.gpus[i], p.gpus[j]);
    }
  }
}

// Fig 18(a)'s shape on a seeded 2:2:6 train:LLM-inf:inf stream with
// profiled quotas: raising gamma never opens more GPUs or leaves more
// SM fragments, and gamma 2 already binds nothing. Every profiled
// limit is at most kLimitFactor (2) x its request and Omega = 1 caps
// the request sum, so the limit sum never exceeds 2.
TEST(DiluScheduler, GammaNeverAddsGpusAndStopsBindingAtTwo)
{
  profiler::ProfileCache profiles;
  const char* small[] = {"bert-base", "roberta-large", "gpt2-large",
                         "vgg19", "resnet152"};
  const char* llms[] = {"llama2-7b", "chatglm3-6b"};
  constexpr int kInstances = 600;  // one GPU each suffices at any gamma
  std::vector<PlacementRequest> stream;
  Rng rng(42);
  for (int i = 0; i < kInstances; ++i) {
    PlacementRequest r;
    r.function = static_cast<FunctionId>(rng.UniformInt(0, 59));
    r.affinity.push_back(r.function);
    const double roll = rng.Uniform();
    if (roll < 0.2) {
      const auto& m = models::GetModel(small[rng.UniformInt(0, 4)]);
      r.type = TaskType::kTraining;
      r.quota = profiles.Training(m).quota;
      r.mem_gb = m.mem_gb_training;
    } else {
      r.large_model = roll < 0.4;
      const auto& m = models::GetModel(r.large_model
                                           ? llms[rng.UniformInt(0, 1)]
                                           : small[rng.UniformInt(0, 4)]);
      r.quota = profiles.Inference(m).quota;
      r.mem_gb = m.mem_gb_inference;
    }
    stream.push_back(r);
  }

  std::vector<int> gpus;
  std::vector<double> frag;
  for (const double gamma : {1.0, 1.25, 1.5, 2.0, 2.5}) {
    DiluSchedulerConfig cfg;
    cfg.gamma = gamma;
    DiluScheduler sched(cfg);
    ClusterState state(kInstances);
    for (std::size_t id = 0; id < stream.size(); ++id) {
      const PlacementRequest& r = stream[id];
      const Placement p = sched.Place(r, state);
      ASSERT_TRUE(p.ok) << "gamma " << gamma << " instance " << id;
      state.Commit(static_cast<InstanceId>(id), r.function,
                   {{p.gpus[0], r.quota, r.mem_gb}});
    }
    gpus.push_back(state.ActiveGpuCount());
    frag.push_back(state.SmFragmentation());
  }
  for (std::size_t i = 1; i < gpus.size(); ++i) {
    EXPECT_LE(gpus[i], gpus[i - 1]) << i;
    EXPECT_LE(frag[i], frag[i - 1]) << i;
  }
  EXPECT_LT(gpus[3], gpus[0]);  // gamma does bind below 2
  EXPECT_EQ(gpus[4], gpus[3]);
  EXPECT_EQ(frag[4], frag[3]);
}

TEST(ExclusiveScheduler, OneGpuPerShard)
{
  ClusterState state(3);
  ExclusiveScheduler sched;
  auto p1 = sched.Place(MakeRequest(1, 1.0, 1.0, 8.0), state);
  ASSERT_TRUE(p1.ok);
  state.Commit(100, 1, {{p1.gpus[0], {1.0, 1.0}, 8.0}});
  auto p2 = sched.Place(MakeRequest(2, 1.0, 1.0, 8.0), state);
  ASSERT_TRUE(p2.ok);
  EXPECT_NE(p2.gpus[0], p1.gpus[0]);  // never shares
}

TEST(ExclusiveScheduler, FailsWithoutIdleGpu)
{
  ClusterState state(1);
  ExclusiveScheduler sched;
  state.Commit(100, 1, {{0, {1.0, 1.0}, 8.0}});
  auto p = sched.Place(MakeRequest(2, 1.0, 1.0, 8.0), state);
  EXPECT_FALSE(p.ok);
}

TEST(ExclusiveScheduler, SkipsDegradedDevices)
{
  ClusterState state(2);
  state.SetDegraded(0, 0.9);
  ExclusiveScheduler sched;
  // Exclusive hands out whole devices; a 90%-device is not whole.
  auto p = sched.Place(MakeRequest(1, 1.0, 1.0, 8.0), state);
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.gpus[0], 1);
  dilu::testing::AuditState(state);
}

TEST(StaticQuotaScheduler, DegradedCapacityScalesTheBudget)
{
  ClusterState state(2);
  state.SetDegraded(0, 0.5);
  StaticQuotaScheduler sched("static-test", 1.0);
  // 0.4 fits the half-device budget (1.0 * 0.5)...
  auto p1 = sched.Place(MakeRequest(1, 0.4, 0.4, 8.0), state);
  ASSERT_TRUE(p1.ok);
  EXPECT_EQ(p1.gpus[0], 0);
  state.Commit(100, 1, {{0, {0.4, 0.4}, 8.0}});
  // ... but the next 0.2 would breach it and spills to the whole GPU.
  auto p2 = sched.Place(MakeRequest(2, 0.2, 0.2, 8.0), state);
  ASSERT_TRUE(p2.ok);
  EXPECT_EQ(p2.gpus[0], 1);
  dilu::testing::AuditState(state);
}

TEST(StaticQuotaScheduler, PacksWithinCapacity)
{
  ClusterState state(2);
  StaticQuotaScheduler sched("static-test", 1.0);
  state.Commit(100, 1, {{0, {0.6, 0.6}, 10.0}});
  auto p1 = sched.Place(MakeRequest(2, 0.4, 0.4, 8.0), state);
  ASSERT_TRUE(p1.ok);
  EXPECT_EQ(p1.gpus[0], 0);  // exactly fills GPU 0
  state.Commit(101, 2, {{0, {0.4, 0.4}, 8.0}});
  auto p2 = sched.Place(MakeRequest(3, 0.2, 0.2, 8.0), state);
  ASSERT_TRUE(p2.ok);
  EXPECT_EQ(p2.gpus[0], 1);  // GPU 0 full
}

TEST(SchedulerNames, Reported)
{
  EXPECT_EQ(DiluScheduler().name(), "dilu");
  EXPECT_EQ(ExclusiveScheduler().name(), "exclusive");
  EXPECT_EQ(StaticQuotaScheduler("x", 1.0).name(), "x");
}

}  // namespace
}  // namespace dilu::scheduler
