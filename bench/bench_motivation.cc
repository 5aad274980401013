/**
 * @file
 * Fig 2 reproduction: the motivating observations.
 *
 * (a/b) Fragmentation sources — static over-provisioning (RoBERTa at a
 *       fixed 30% SM quota under light load), DDP communication idling
 *       (4-worker GPT2-large), keep-alive waste (sporadic trace).
 * (c/d) Toy co-scaling experiment — Exclusive on 4 GPUs (3 training +
 *       1 inference) versus Collocation on 3 GPUs (each GPU hosts one
 *       training worker + one inference instance, requests balanced
 *       over the 3 inference workers), sweeping RPS.
 */
#include <cstdio>

#include "bench_util.h"
#include "models/cost_model.h"

namespace {

using namespace dilu;

void ObservationOverprovisioning()
{
  std::printf("Fig 2(a): static 30%% SM quota for RoBERTa-large under "
              "light load (5 rps)\n");
  cluster::ClusterRuntime rt(cluster::PresetConfig("mps-l"));
  core::FunctionSpec spec;
  spec.model = "roberta-large";
  spec.ibs = 4;
  spec.quota = {0.3, 0.3};  // INFless-style constant 30% allocation
  const FunctionId fn = rt.Deploy(spec);
  rt.LaunchInferenceOn(fn, {0}, /*cold=*/false);
  rt.AttachArrivals(fn,
                    std::make_unique<workload::PoissonArrivals>(
                        5.0, Rng(bench::kStreamSeed)),
                    Sec(60));
  rt.RunFor(Sec(62));
  const auto& samples = rt.metrics().samples();
  double util = 0.0;
  for (const auto& s : samples) util += s.avg_utilization;
  util /= samples.empty() ? 1 : samples.size();
  std::printf("  allocated SM quota: 30%%, average SM actually used: "
              "%.1f%% -> %.1f%% of the quota is an internal fragment\n\n",
              util * 100, (0.3 - util) / 0.3 * 100);
}

void ObservationCommIdling()
{
  std::printf("Fig 2(a/b): GPU idling of distributed training\n");
  for (const char* model : {"gpt2-large", "llama2-7b"}) {
    const auto& m = models::GetModel(model);
    const double comm = static_cast<double>(models::TrainingCommPhase(m));
    const double comp =
        static_cast<double>(models::TrainingComputePhase(m, 1.0));
    std::printf("  %-12s %d-worker: %.0f%% of each iteration is "
                "comm/bubble (GPU idle)\n", model,
                std::string(model) == "gpt2-large" ? 4 : 4,
                comm / (comm + comp) * 100);
  }
  std::printf("\n");
}

void ObservationKeepAlive()
{
  std::printf("Fig 2(a): keep-alive waste under a sporadic trace\n");
  workload::SporadicSpec spec;
  spec.duration_s = 300;
  spec.base_rps = 2.0;
  spec.active_fraction = 0.12;
  const auto env = workload::BuildSporadicTrace(spec);
  int active = 0;
  for (double v : env) {
    if (v > 0.0) ++active;
  }
  std::printf("  trace active %d / %d seconds; a keep-alive instance is "
              "provisioned 100%% of the time -> %.0f%% of its GPU "
              "reservation is waste\n\n", active, spec.duration_s,
              (1.0 - static_cast<double>(active) / spec.duration_s)
                  * 100);
}

void ToyCoScaling()
{
  std::printf("Fig 2(c/d): toy co-scaling, Exclusive (4 GPUs) vs "
              "Collocation (3 GPUs)\n");
  std::printf("%8s | %14s %14s | %14s %14s\n", "RPS", "excl p95(ms)",
              "coll p95(ms)", "excl train", "coll train");
  core::FunctionSpec train;
  train.model = "bert-base";
  train.type = TaskType::kTraining;
  train.workers = 3;
  core::FunctionSpec serve;
  serve.model = "roberta-large";
  for (double rps : {32.0, 64.0, 128.0, 256.0}) {
    // Exclusive: 3 GPUs train BERT, 1 GPU serves RoBERTa.
    cluster::ClusterRuntime excl(cluster::PresetConfig("exclusive"));
    const FunctionId t = excl.Deploy(train);
    excl.StartTrainingOn(t, {0, 1, 2}, /*cold=*/false);
    const FunctionId i = excl.Deploy(serve);
    excl.LaunchInferenceOn(i, {3}, /*cold=*/false);
    excl.AttachArrivals(i,
                        std::make_unique<workload::PoissonArrivals>(
                            rps, Rng(bench::kStreamSeed)),
                        Sec(60));
    excl.RunFor(Sec(62));
    const auto ri = experiment::CollectFunctionResult(excl, i);
    const double tt = excl.TrainingThroughputUnits(t);

    // Collocation: 3 GPUs, each hosts a training worker + an
    // inference instance; requests balance across the 3 instances.
    cluster::ClusterRuntime coll(cluster::ClusterConfig{});  // dilu
    const FunctionId ct = coll.Deploy(train);
    coll.StartTrainingOn(ct, {0, 1, 2}, /*cold=*/false);
    const FunctionId ci = coll.Deploy(serve);
    for (GpuId g : {0, 1, 2}) {
      coll.LaunchInferenceOn(ci, {g}, /*cold=*/false);
    }
    coll.AttachArrivals(ci,
                        std::make_unique<workload::PoissonArrivals>(
                            rps, Rng(bench::kStreamSeed)),
                        Sec(60));
    coll.RunFor(Sec(62));
    const auto rc = experiment::CollectFunctionResult(coll, ci);
    const double tc = coll.TrainingThroughputUnits(ct);

    std::printf("%8.0f | %14.1f %14.1f | %14.0f %14.0f  (train "
                "-%4.1f%%)\n", rps, ri.p95_ms, rc.p95_ms, tt, tc,
                (1.0 - tc / std::max(1.0, tt)) * 100);
  }
  std::printf("  (collocation saves 25%% of GPUs; paper: +46%% inference "
              "throughput, -5.2%% training at RPS=256)\n");
}

}  // namespace

int
main()
{
  std::printf("=== Fig 2: motivating observations ===\n\n");
  ObservationOverprovisioning();
  ObservationCommIdling();
  ObservationKeepAlive();
  ToyCoScaling();
  return 0;
}
