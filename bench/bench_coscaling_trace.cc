/**
 * @file
 * Fig 12 reproduction: co-scaling trace analysis under a bursty
 * workload — per-interval RPS, deployed instance count, p95 and SVR.
 *
 * The signature behaviour: when a surge hits (the paper frames
 * 200-240 s), fast vertical scale-up absorbs the first seconds, buying
 * time for the lazy scale-out to bring a new instance online without an
 * SLO cliff; instance count steps up shortly after the surge onset.
 */
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "cluster/trace_export.h"
#include "experiment/experiment.h"
#include "workload/azure_traces.h"

int
main()
{
  using namespace dilu;

  cluster::ClusterRuntime rt(cluster::ClusterConfig{});  // full Dilu
  core::FunctionSpec fs;
  fs.model = "roberta-large";
  const FunctionId fn = rt.Deploy(fs);
  rt.LaunchInference(fn, /*cold=*/false);
  rt.EnableAutoscaler(fn, scaling::MakeHorizontalPolicy("dilu-lazy"));

  workload::BurstySpec spec;
  spec.duration_s = 400;
  spec.base_rps = 50.0;
  spec.burst_scale = 2.4;
  spec.burst_len_s = 60;
  spec.burst_gap_s = 120;
  const auto env = workload::BuildBurstyTrace(spec);
  rt.AttachArrivals(
      fn,
      std::make_unique<workload::EnvelopeArrivals>(env,
                                                   Rng(bench::kStreamSeed)),
      Sec(400));

  // Windowed latency: sample per-10s percentiles through a sink shim.
  struct Window {
    Percentiles lat;
    int violations = 0;
    int total = 0;
  };
  std::map<int, Window> windows;
  const double slo_ms = models::GetModel("roberta-large").slo_ms;
  auto& gw = rt.gateway();
  // Re-route the metrics sink of every instance as it appears.
  rt.simulation().SchedulePeriodic(Sec(1), Sec(1), [&] {
    for (auto* inst : gw.instances(fn)) {
      inst->set_request_sink([&, fnid = fn](const workload::Request& r) {
        rt.metrics().RecordRequest(fnid, r);
        const int w = static_cast<int>(ToSec(r.completed)) / 10;
        Window& win = windows[w];
        win.lat.Add(r.Latency());
        ++win.total;
        if (ToMs(r.Latency()) > slo_ms) ++win.violations;
      });
    }
  });

  rt.RunFor(Sec(405));

  std::printf("=== Fig 12: co-scaling trace (RoBERTa-large, bursty) "
              "===\n");
  std::printf("%8s %10s %10s %10s %8s\n", "t(s)", "mean RPS",
              "instances", "p95(ms)", "SVR(%)");
  const auto& series = rt.function(fn).instance_count_series;
  for (int w = 0; w * 10 < spec.duration_s; ++w) {
    double rps = 0.0;
    for (int s = w * 10; s < (w + 1) * 10 && s < spec.duration_s; ++s) {
      rps += env[static_cast<std::size_t>(s)];
    }
    rps /= 10.0;
    int instances = 1;
    for (const auto& [t, n] : series) {
      if (ToSec(t) <= (w + 1) * 10.0) instances = n;
    }
    const Window& win = windows[w];
    std::printf("%8d %10.1f %10d %10.0f %8.2f\n", w * 10, rps, instances,
                win.lat.P95(),
                win.total == 0
                    ? 0.0
                    : 100.0 * win.violations / win.total);
  }
  const auto report = experiment::CollectFunctionResult(rt, fn);
  std::printf("\noverall: %lld requests, SVR %.2f%%, cold starts %d\n",
              static_cast<long long>(report.completed),
              report.svr_percent, report.cold_starts);
  if (cluster::ExportAll(rt, "/tmp/dilu_fig12")) {
    std::printf("time series exported to /tmp/dilu_fig12_*.csv\n");
  }
  return 0;
}
