/**
 * @file
 * Fig 13 + Fig 14 reproduction: kernel issuing traces.
 *
 * Case 1 (Fig 13a): low inference workload (~10 rps RoBERTa-large)
 * collocated with BERT training — Dilu keeps the inference kernel ratio
 * low so training absorbs the idle SMs; MPS-r's static reservation
 * leaves them stranded.
 * Case 2 (Fig 13b): fluctuating Gamma(CV=5) workload — Dilu issues more
 * kernels to inference exactly when bursts arrive.
 * Fig 14: cumulative executed kernel blocks — Dilu's total tracks the
 * highest GPU utilization.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "runtime/inference_instance.h"

namespace {

using namespace dilu;

struct TraceRow {
  double t = 0.0;
  double inf_ratio = 0.0;   ///< inference blocks / all blocks (interval)
  double total_blocks = 0.0;  ///< cumulative blocks executed on the GPU
};

std::vector<TraceRow> RunCase(const std::string& preset, double rps,
                              double cv, int seconds)
{
  cluster::ClusterRuntime rt(cluster::PresetConfig(preset));
  core::FunctionSpec ts;
  ts.model = "bert-base";
  ts.type = TaskType::kTraining;
  const FunctionId train = rt.Deploy(ts);
  core::FunctionSpec is;
  is.model = "roberta-large";
  const FunctionId inf = rt.Deploy(is);
  rt.StartTrainingOn(train, {0}, /*cold=*/false);
  rt.LaunchInferenceOn(inf, {0}, /*cold=*/false);
  if (cv < 0.0) {
    rt.AttachArrivals(inf,
                      std::make_unique<workload::PoissonArrivals>(
                          rps, Rng(bench::kStreamSeed)),
                      Sec(seconds));
  } else {
    rt.AttachArrivals(inf,
                      std::make_unique<workload::GammaArrivals>(
                          rps, cv, Rng(bench::kStreamSeed)),
                      Sec(seconds));
  }

  auto* inf_inst = rt.gateway().instances(inf)[0];
  std::vector<TraceRow> rows;
  double last_inf = 0.0;
  double last_total = 0.0;
  rt.simulation().SchedulePeriodic(Sec(5), Sec(5), [&] {
    const double inf_total = inf_inst->stats().blocks_launched_total;
    const double gpu_total = rt.gpus().gpu(0).UtilizationIntegral(rt.now())
        / static_cast<double>(kTokenPeriodUs) * models::kBlocksPerQuantum;
    TraceRow row;
    row.t = ToSec(rt.now());
    const double inf_delta = inf_total - last_inf;
    const double total_delta = gpu_total - last_total;
    row.inf_ratio = total_delta > 0 ? inf_delta / total_delta : 0.0;
    row.total_blocks = gpu_total;
    last_inf = inf_total;
    last_total = gpu_total;
    rows.push_back(row);
  });
  rt.RunFor(Sec(seconds + 2));
  return rows;
}

void PrintCase(const char* title, double rps, double cv, int seconds)
{
  std::printf("%s\n", title);
  const auto dilu = RunCase("dilu", rps, cv, seconds);
  const auto mps_r = RunCase("mps-r", rps, cv, seconds);
  std::printf("%8s %18s %18s %18s %18s\n", "t(s)", "dilu inf-ratio",
              "mps-r inf-ratio", "dilu cum-blk", "mps-r cum-blk");
  for (std::size_t i = 0; i < dilu.size() && i < mps_r.size(); ++i) {
    std::printf("%8.0f %18.3f %18.3f %18.0f %18.0f\n", dilu[i].t,
                dilu[i].inf_ratio, mps_r[i].inf_ratio,
                dilu[i].total_blocks, mps_r[i].total_blocks);
  }
  std::printf("\n");
}

}  // namespace

int
main()
{
  std::printf("=== Fig 13/14: kernel issuing traces (inference share of "
              "executed kernel blocks per 5 s window; cumulative blocks) "
              "===\n\n");
  PrintCase("Case 1: low workload (Poisson 10 rps)", 10.0, -1.0, 50);
  PrintCase("Case 2: fluctuating workload (Gamma CV=5, 40 rps)", 40.0,
            5.0, 50);
  std::printf("(paper: under low load Dilu's inference kernel ratio "
              "stays low, freeing SMs for training; under bursts Dilu "
              "issues more tokens than MPS-r exactly when needed; Dilu's "
              "cumulative kernel count — Fig 14 — tracks the highest GPU "
              "utilization)\n");
  return 0;
}
