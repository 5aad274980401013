/**
 * @file
 * Table 3 reproduction: horizontal scaling on the three Azure trace
 * archetypes (Bursty, Periodic, Sporadic) comparing FaST-GS+ (eager
 * scaling), INFless+ (prediction + keep-alive) and Dilu (lazy scaling
 * with fast vertical headroom).
 *
 * Metrics: CSC (cold start count), SVR (SLO violation rate), and SGT
 * (GPU time the baseline spends beyond Dilu's).
 */
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace dilu;

struct RunResult {
  int csc = 0;
  double svr = 0.0;
  double gpu_seconds = 0.0;
  long long completed = 0;
};

RunResult RunTrace(const std::string& system_kind,
                   workload::TraceKind trace)
{
  cluster::ClusterConfig cfg;
  std::string policy;
  if (system_kind == "fastgs+") {
    cfg = cluster::PresetConfig("fastgs");
    policy = "eager";
  } else if (system_kind == "infless+") {
    cfg = cluster::PresetConfig("infless-l");
    policy = "keep-alive";
  } else {
    policy = "dilu-lazy";
  }
  cfg.nodes = 3;
  cluster::ClusterRuntime rt(cfg);

  core::FunctionSpec fs;
  fs.model = "roberta-large";
  const FunctionId fn = rt.Deploy(fs);
  rt.LaunchInference(fn, /*cold=*/false);
  rt.EnableAutoscaler(fn, scaling::MakeHorizontalPolicy(policy));

  // The single-instance serving capacity is ~80 rps (RoBERTa-large at
  // IBS=4); burst batching stretches that to ~110 rps transiently, so
  // the archetypes are sized to demand 1-3 instances like the paper's.
  workload::TraceSpec spec;
  spec.duration_s = 600;
  spec.base_rps = 55.0;
  std::vector<double> env;
  if (trace == workload::TraceKind::kBursty) {
    // Few-second-level surges: the regime the paper's lazy scale-out
    // explicitly declines to chase (Section 3.4.2).
    workload::BurstySpec b;
    static_cast<workload::TraceSpec&>(b) = spec;
    b.burst_scale = 2.6;
    b.burst_len_s = 12;
    b.burst_gap_s = 60;
    env = workload::BuildBurstyTrace(b);
  } else if (trace == workload::TraceKind::kPeriodic) {
    workload::PeriodicSpec p;
    static_cast<workload::TraceSpec&>(p) = spec;
    p.base_rps = 60.0;
    p.amplitude = 0.7;
    p.period_s = 150;
    env = workload::BuildPeriodicTrace(p);
  } else {
    workload::SporadicSpec s;
    static_cast<workload::TraceSpec&>(s) = spec;
    s.base_rps = 65.0;
    s.active_fraction = 0.25;
    s.spike_len_s = 30;
    env = workload::BuildSporadicTrace(s);
  }
  rt.AttachArrivals(
      fn,
      std::make_unique<workload::EnvelopeArrivals>(std::move(env),
                                                   Rng(bench::kStreamSeed)),
      Sec(600));
  rt.RunFor(Sec(610));

  RunResult r;
  const auto rep = experiment::CollectFunctionResult(rt, fn);
  r.csc = rep.cold_starts;
  r.svr = rep.svr_percent;
  r.completed = rep.completed;
  // Flush still-live instances' GPU time by scaling everything in.
  while (rt.ScaleInOne(fn)) {
  }
  rt.RunFor(Ms(1));
  r.gpu_seconds = rt.metrics().total_gpu_seconds();
  return r;
}

}  // namespace

int
main()
{
  std::printf("=== Table 3: horizontal scaling on Azure trace "
              "archetypes ===\n");
  std::printf("%-10s %-10s %6s %8s %10s %10s\n", "Trace", "Baseline",
              "CSC", "SVR(%)", "SGT(s)", "requests");
  for (auto trace : {workload::TraceKind::kBursty,
                     workload::TraceKind::kPeriodic,
                     workload::TraceKind::kSporadic}) {
    RunResult dilu = RunTrace("dilu", trace);
    for (const char* sys : {"fastgs+", "infless+", "dilu"}) {
      const RunResult r =
          std::string(sys) == "dilu" ? dilu : RunTrace(sys, trace);
      const double sgt = r.gpu_seconds - dilu.gpu_seconds;
      std::printf("%-10s %-10s %6d %8.2f %10.1f %10lld\n",
                  workload::ToString(trace), sys, r.csc, r.svr,
                  std::string(sys) == "dilu" ? 0.0 : sgt, r.completed);
    }
  }
  std::printf("\n(paper: Dilu cuts CSC by 75-77%% and SVR by 46-67%% vs "
              "INFless+/FaST-GS+ while saving the SGT column of GPU "
              "time)\n");
  return 0;
}
