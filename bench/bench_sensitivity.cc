/**
 * @file
 * Fig 18 reproduction: sensitivity analyses.
 *
 * (a) Oversubscription coefficient gamma (the max sum of limit quotas
 *     per GPU) swept over {1.0, 1.25, 1.5, 2.0, 2.5} on the 3,200-
 *     instance placement: fragments and GPU usage fall with gamma, with
 *     diminishing returns beyond 1.5 (the paper's default).
 * (b) RCKM MaxTokens swept over {250, 500, 1000, 2000, 4000} on a
 *     training+inference collocation: conservative settings throttle
 *     everyone, excessive settings cause interference (inference p95).
 */
#include <cstdio>

#include "bench_util.h"
#include "profiler/profile_cache.h"
#include "scheduler/scheduler.h"

namespace {

using namespace dilu;

void SweepGamma()
{
  std::printf("=== Fig 18(a): oversubscription coefficient sweep "
              "(3200 instances, 4000 GPUs) ===\n");
  std::printf("%8s %12s %12s %12s\n", "gamma", "GPUs used", "SM frag",
              "mem frag");
  // Shared profiled quotas.
  profiler::ProfileCache profiles;
  struct Item {
    SmQuota quota;
    double mem;
    bool large;
    TaskType type;
  };
  std::vector<Item> stream;
  Rng rng(42);
  for (int i = 0; i < 3200; ++i) {
    Item it;
    const double roll = rng.Uniform();
    if (roll < 0.2) {
      const auto& m =
          models::GetModel(bench::kSmallModelPool[rng.UniformInt(0, 4)]);
      it.quota = profiles.Training(m).quota;
      it.mem = m.mem_gb_training;
      it.large = false;
      it.type = TaskType::kTraining;
    } else {
      const bool llm = roll < 0.4;
      const auto& m = models::GetModel(
          llm ? bench::kLlmModelPool[rng.UniformInt(0, 1)]
              : bench::kSmallModelPool[rng.UniformInt(0, 4)]);
      it.quota = profiles.Inference(m).quota;
      it.mem = m.mem_gb_inference;
      it.large = llm;
      it.type = TaskType::kInference;
    }
    stream.push_back(it);
  }

  for (double gamma : {1.0, 1.25, 1.5, 2.0, 2.5}) {
    scheduler::ClusterState state = bench::MakeFig17Cluster();
    scheduler::DiluSchedulerConfig cfg;
    cfg.gamma = gamma;
    scheduler::DiluScheduler sched(cfg);
    InstanceId id = 0;
    for (const Item& it : stream) {
      scheduler::PlacementRequest req;
      req.function = id % 200;
      req.type = it.type;
      req.quota = it.quota;
      req.mem_gb = it.mem;
      req.large_model = it.large;
      req.affinity = {req.function};
      const auto placement = sched.Place(req, state);
      if (placement.ok) {
        state.Commit(id, req.function,
                     {{placement.gpus[0], req.quota, req.mem_gb}});
      }
      ++id;
    }
    std::printf("%8.2f %12d %12.2f %12.2f\n", gamma,
                state.ActiveGpuCount(), state.SmFragmentation(),
                state.MemoryFragmentation());
  }
  std::printf("(diminishing returns beyond 1.5; excessive values "
              "degrade QoS per Fig 18(b))\n\n");
}

void SweepMaxTokens()
{
  std::printf("=== Fig 18(b): MaxTokens sweep (RoBERTa-large inference "
              "@40rps + BERT training, shared GPU) ===\n");
  std::printf("%10s %14s %14s %16s\n", "MaxTokens", "inf p50(ms)",
              "inf p95(ms)", "train tokens/s");
  for (double max_tokens : {250.0, 500.0, 1000.0, 2000.0, 4000.0}) {
    cluster::ClusterConfig cfg;  // dilu
    cfg.max_tokens = max_tokens;
    cluster::ClusterRuntime rt(cfg);
    core::FunctionSpec ts;
    ts.model = "bert-base";
    ts.type = TaskType::kTraining;
    const FunctionId train = rt.Deploy(ts);
    core::FunctionSpec is;
    is.model = "roberta-large";
    const FunctionId inf = rt.Deploy(is);
    rt.StartTrainingOn(train, {0}, /*cold=*/false);
    rt.LaunchInferenceOn(inf, {0}, /*cold=*/false);
    rt.AttachArrivals(inf,
                      std::make_unique<workload::GammaArrivals>(
                          40.0, 3.0, Rng(bench::kStreamSeed)),
                      Sec(60));
    rt.RunFor(Sec(62));
    const auto rep = experiment::CollectFunctionResult(rt, inf);
    std::printf("%10.0f %14.1f %14.1f %16.0f\n", max_tokens, rep.p50_ms,
                rep.p95_ms, rt.TrainingThroughputUnits(train));
  }
  std::printf("(the device executes 1000 blocks per 5 ms period: "
              "<1000 throttles everyone, >1000 oversubscribes and "
              "inflates inference tails)\n");
}

}  // namespace

int
main()
{
  SweepGamma();
  SweepMaxTokens();
  return 0;
}
