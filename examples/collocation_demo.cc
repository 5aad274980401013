/**
 * @file
 * Collocation demo: one GPU hosting a BERT-base training worker and a
 * RoBERTa-large inference instance, showing introspective vertical
 * scaling in action — the RCKM shifts SM share toward inference during
 * bursts and hands it back to training when the workload drops.
 *
 *   $ ./build/examples/collocation_demo
 */
#include <cstdio>
#include <memory>

#include "experiment/experiment.h"
#include "rckm/token_manager.h"

int
main()
{
  using namespace dilu;
  cluster::ClusterRuntime rt(cluster::ClusterConfig{});  // Dilu policies

  // A training function and an inference function sharing GPU 0.
  core::FunctionSpec ts;
  ts.model = "bert-base";
  ts.type = TaskType::kTraining;
  const FunctionId train = rt.Deploy(ts);
  core::FunctionSpec is;
  is.model = "roberta-large";
  const FunctionId inf = rt.Deploy(is);
  rt.StartTrainingOn(train, {0}, /*cold=*/false);
  rt.LaunchInferenceOn(inf, {0}, /*cold=*/false);

  // Three phases of 30 s each: quiet (5 rps), burst (40 rps), quiet
  // again, each a Poisson stream with its own seed.
  const auto drive = [&rt, inf](double rps, std::uint64_t seed) {
    rt.AttachArrivals(
        inf, std::make_unique<workload::PoissonArrivals>(rps, Rng(seed)),
        rt.now() + Sec(30));
  };
  drive(5.0, 0x57F00D);
  rt.simulation().queue().ScheduleAt(Sec(30),
                                     [&] { drive(40.0, 0x57F00E); });
  rt.simulation().queue().ScheduleAt(Sec(60),
                                     [&] { drive(5.0, 0x57F00F); });

  // Sample the GPU's granted shares each second.
  std::printf("%6s %12s %12s %14s\n", "t(s)", "inf share", "train share",
              "rckm state");
  rt.simulation().SchedulePeriodic(Sec(5), Sec(5), [&] {
    const auto& gpu = rt.gpus().gpu(0);
    double inf_share = 0.0;
    double train_share = 0.0;
    for (const auto& a : gpu.attachments()) {
      if (a.type == TaskType::kInference) {
        inf_share += a.granted;
      } else {
        train_share += a.granted;
      }
    }
    auto* arb = dynamic_cast<rckm::DiluArbiter*>(&rt.gpus().arbiter(0));
    std::printf("%6.0f %12.2f %12.2f %14s\n", ToSec(rt.now()), inf_share,
                train_share,
                arb ? rckm::ToString(arb->manager().state()) : "-");
  });

  rt.RunFor(Sec(92));

  const auto inf_report = experiment::CollectFunctionResult(rt, inf);
  std::printf("\ninference: %lld requests, p95 %.1f ms, SVR %.2f%%\n",
              static_cast<long long>(inf_report.completed),
              inf_report.p95_ms, inf_report.svr_percent);
  std::printf("training:  %.0f %s on the same GPU\n",
              rt.TrainingThroughputUnits(train),
              rt.function(train).model->throughput_unit.c_str());
  return 0;
}
