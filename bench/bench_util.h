/**
 * @file
 * Shared helpers for the benches: the report-emitting CLI, the Fig 17
 * instance mix and fleet, and the arrival-stream seed. The paper
 * figures that a spec can express are sweeps under experiments/paper/
 * (docs/EXPERIMENTS.md), Table 2's search counts are profiler_test
 * assertions, and the benches that remain print what a spec cannot
 * (Fig 17 and Fig 18(a)'s placement-only passes, Fig 2's toys, Fig 4's
 * profiler surfaces, Fig 12's series and the kernel traces) or time the
 * simulator itself (PERFORMANCE.md).
 */
#ifndef DILU_BENCH_BENCH_UTIL_H_
#define DILU_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/spec_text.h"
#include "experiment/experiment.h"
#include "profiler/profile_cache.h"
#include "scheduler/scheduler.h"
#include "workload/azure_traces.h"

namespace dilu::bench {

/** The shared report-emitting bench CLI: --quick / --seed N / --out F. */
struct CliOptions {
  bool quick = false;
  std::uint64_t seed = 0;
  /**
   * --seed was given on the command line. Without it a bench that has
   * per-suite seeds uses the ones its historical BENCH_*.json reports
   * were recorded under (PERFORMANCE.md).
   */
  bool seed_given = false;
  const char* out = nullptr;
};

/**
 * Parse the shared flags (every unknown argument, and a --seed that is
 * not a whole unsigned number, is a usage error). `default_seed` seeds
 * --seed when absent. Returns false after printing usage.
 */
inline bool
ParseCli(int argc, char** argv, CliOptions* opts,
         std::uint64_t default_seed = 0)
{
  opts->seed = default_seed;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts->quick = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc
               && spec_text::ParseUint64(argv[i + 1], &opts->seed)) {
      ++i;
      opts->seed_given = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts->out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--seed N] [--out FILE]\n",
                   argv[0]);
      return false;
    }
  }
  return true;
}

/**
 * Run `write(FILE*)` against --out (announcing the path on stderr) or
 * stdout. Returns the process exit code.
 */
template <typename WriteFn>
inline int
EmitReport(const CliOptions& opts, WriteFn&& write)
{
  if (opts.out != nullptr) {
    std::FILE* f = std::fopen(opts.out, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opts.out);
      return 1;
    }
    write(f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", opts.out);
  } else {
    write(stdout);
  }
  return 0;
}

/** One instance drawn from the paper's 2:2:6 Fig 17 type mix. */
struct MixInstance {
  scheduler::PlacementRequest request;
  int shards = 1;
};

/**
 * Draw an instance from the 2:2:6 train:LLM-inf:inf mix used by the
 * Fig 17 reproductions (bench_large_scale and the perf harness share
 * this so their instance streams cannot diverge). Training and non-LLM
 * inference draw from the same small-model pool. `quota_mode` mirrors
 * ClusterConfig::quota_mode: "dilu" keeps <request, limit> as
 * profiled, "limit" pins the request to the limit, "full" pins both
 * to 1.0.
 */
inline MixInstance
DrawMixInstance(Rng* rng, const std::string& quota_mode = "dilu")
{
  // Profiles are deterministic per model: cache them in a function-local
  // static (destroyed normally at exit — no leaked `new`).
  static profiler::ProfileCache profiles;
  static constexpr const char* kSmallModelPool[] = {
      "bert-base", "roberta-large", "gpt2-large", "vgg19", "resnet152"};
  static constexpr const char* kLlmModelPool[] = {"llama2-7b",
                                                  "chatglm3-6b"};

  MixInstance def;
  const double roll = rng->Uniform();
  std::string model;
  if (roll < 0.2) {
    // Training worker.
    model = kSmallModelPool[rng->UniformInt(0, 4)];
    const auto& m = models::GetModel(model);
    def.request.type = TaskType::kTraining;
    def.request.quota = profiles.Training(m).quota;
    def.request.mem_gb = m.mem_gb_training;
  } else {
    const bool llm = roll < 0.4;
    model = llm ? kLlmModelPool[rng->UniformInt(0, 1)]
                : kSmallModelPool[rng->UniformInt(0, 4)];
    const auto& m = models::GetModel(model);
    def.request.type = TaskType::kInference;
    def.request.quota = profiles.Inference(m).quota;
    def.request.mem_gb = m.mem_gb_inference;
    def.request.large_model = llm;
    if (llm && rng->Uniform() < 0.5) {
      def.shards = 2;  // half the LLM instances span two fragments
      def.request.quota.request /= 2;
      def.request.quota.limit /= 2;
      def.request.mem_gb /= 2;
    }
  }
  def.request.gpus_needed = def.shards;
  def.request.function = static_cast<FunctionId>(rng->UniformInt(0, 199));
  def.request.affinity = {def.request.function};
  if (quota_mode == "limit") {
    def.request.quota.request = def.request.quota.limit;
  } else if (quota_mode == "full") {
    def.request.quota = {1.0, 1.0};
  }
  return def;
}

/**
 * Arrival-stream seeds: the k-th stream a bench attaches to one
 * cluster draws from Rng(kStreamSeed + k), the seeds every figure's
 * recorded output was produced under (the experiments/paper/ specs
 * name them as `seed=5763085 + k`).
 */
constexpr std::uint64_t kStreamSeed = 0x57F00D;

/** The Fig 17 fleet: 1,000 nodes x 4 GPUs x 40 GB, shared by
 *  bench_large_scale and the perf harness so the cluster shape cannot
 *  diverge between suites. */
inline scheduler::ClusterState MakeFig17Cluster()
{
  scheduler::ClusterState state;
  for (int n = 0; n < 1000; ++n) {
    for (int g = 0; g < 4; ++g) state.AddGpu(n);
  }
  return state;
}

/**
 * Fig 17 churn-phase schedule, shared by bench_large_scale and the
 * perf harness so their workloads cannot diverge: 10 ramp-up steps of
 * net growth, then arrivals ~ departures with a 3-step sawtooth.
 */
inline int Fig17ChurnArrivals(int step) { return step < 10 ? 200 : 120; }
inline int Fig17ChurnDepartures(int step)
{
  return step < 10 ? 40 : 120 + (step % 3 == 0 ? 30 : -10);
}

}  // namespace dilu::bench

#endif  // DILU_BENCH_BENCH_UTIL_H_
