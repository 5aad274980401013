/**
 * @file
 * Cluster tour: a multi-node deployment mixing training and inference,
 * exercising the whole pipeline — profiling, Algorithm 1 placement with
 * workload affinity, RCKM vertical scaling, lazy co-scaling — and
 * finishing with a fragmentation/occupancy report and CSV export.
 *
 *   $ ./build/examples/cluster_tour
 */
#include <cstdio>
#include <memory>

#include "cluster/trace_export.h"
#include "experiment/experiment.h"
#include "workload/azure_traces.h"

int
main()
{
  using namespace dilu;

  cluster::ClusterConfig cfg;
  cfg.nodes = 3;  // 12 GPUs
  cluster::ClusterRuntime rt(cfg);

  std::printf("=== deploying a mixed serverless DL workload on %d GPUs "
              "===\n\n", cfg.nodes * cfg.gpus_per_node);

  // Two training jobs (finite, for JCT) ...
  core::FunctionSpec train;
  train.type = TaskType::kTraining;
  train.workers = 2;
  train.model = "bert-base";
  train.target_iterations = 400;
  const FunctionId bert_train = rt.Deploy(train);
  train.model = "gpt2-large";
  train.target_iterations = 150;
  const FunctionId gpt2_train = rt.Deploy(train);
  rt.StartTraining(bert_train, /*cold=*/false);
  rt.StartTraining(gpt2_train, /*cold=*/false);

  // ... and three inference functions with different workloads.
  struct Fn {
    const char* model;
    FunctionId id;
  };
  Fn fns[] = {{"resnet152", 0}, {"roberta-large", 0}, {"gpt2-large", 0}};
  for (Fn& f : fns) {
    core::FunctionSpec serve;
    serve.model = f.model;
    f.id = rt.Deploy(serve);
    const auto& spec = rt.function(f.id).spec;
    std::printf("%-14s profiled: IBS=%d <request=%.0f%%, limit=%.0f%%> "
                "capacity %.0f rps\n", f.model, spec.ibs,
                spec.quota.request * 100, spec.quota.limit * 100,
                spec.per_instance_rps);
    rt.LaunchInference(f.id, /*cold=*/false);
    rt.EnableAutoscaler(f.id, scaling::MakeHorizontalPolicy("dilu-lazy"));
  }
  std::printf("\nGPUs occupied after placement: %d (exclusive allocation "
              "would need %d)\n\n",
              rt.state().ActiveGpuCount(), 2 + 2 + 3);

  // Three arrival streams, seeded 0x57F00D, 0x57F00E and 0x57F00F.
  workload::BurstySpec bursty;
  bursty.duration_s = 240;
  bursty.base_rps = 60.0;
  rt.AttachArrivals(fns[0].id,
                    std::make_unique<workload::EnvelopeArrivals>(
                        workload::BuildBurstyTrace(bursty), Rng(0x57F00D)),
                    Sec(240));
  workload::PeriodicSpec periodic;
  periodic.duration_s = 240;
  periodic.base_rps = 40.0;
  rt.AttachArrivals(fns[1].id,
                    std::make_unique<workload::EnvelopeArrivals>(
                        workload::BuildPeriodicTrace(periodic),
                        Rng(0x57F00E)),
                    Sec(240));
  rt.AttachArrivals(
      fns[2].id,
      std::make_unique<workload::PoissonArrivals>(8.0, Rng(0x57F00F)),
      Sec(240));

  rt.RunFor(Sec(250));

  std::printf("--- serving results ---\n");
  for (const Fn& f : fns) {
    const auto r = experiment::CollectFunctionResult(rt, f.id);
    std::printf("%-14s %6lld reqs  p50/p95 %5.0f/%5.0f ms  SVR %5.2f%%  "
                "cold starts %d\n", f.model,
                static_cast<long long>(r.completed), r.p50_ms, r.p95_ms,
                r.svr_percent, r.cold_starts);
  }
  std::printf("--- training results ---\n");
  for (FunctionId t : {bert_train, gpt2_train}) {
    const auto r = experiment::CollectFunctionResult(rt, t);
    std::printf("%-14s %6lld iterations  %8.0f %s  JCT %.1f s\n",
                r.name.c_str(), static_cast<long long>(r.iterations),
                r.throughput_units,
                rt.function(t).model->throughput_unit.c_str(), r.jct_s);
  }

  const auto& samples = rt.metrics().samples();
  double frag = 0.0;
  double util = 0.0;
  for (const auto& s : samples) {
    frag += s.sm_fragmentation;
    util += s.avg_utilization;
  }
  std::printf("\nmean SM fragmentation on active GPUs: %.2f, mean "
              "utilization: %.2f\n",
              frag / samples.size(), util / samples.size());
  if (cluster::ExportAll(rt, "/tmp/dilu_tour")) {
    std::printf("time series exported to /tmp/dilu_tour_*.csv\n");
  }
  return 0;
}
