/**
 * @file
 * Sharded-core scaling bench (BENCH_04.json, docs/PARALLELISM.md): one
 * churn/placement-heavy 50k-GPU serverless fleet — 6,250 nodes x 8
 * GPUs, 256 autoscaled inference functions under bursty arrivals,
 * ~1M requests — partitioned into shards=8 and run on threads in
 * {1, 2, 4, 8}. Reports wall clock per thread count and the
 * speedup over threads=1, and self-checks the determinism contract:
 * every thread count must serialize the byte-identical report (the
 * bench FAILS, exit 1, if any run diverges).
 *
 * Flags: --quick (a 1k-GPU miniature, CI smoke), --seed N (cluster
 * seed, echoed into the JSON), --out FILE. Any other argument is a
 * usage error (exit 2).
 *
 * Wall clock covers Run() only — partitioned construction is the same
 * work at every thread count and is excluded, as in the other benches.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/utsname.h>
#endif

#include "bench_util.h"
#include "experiment/experiment.h"

namespace {

using namespace dilu;
// dilu-lint: allow(wall-clock the scaling bench measures real elapsed time by design)
using Clock = std::chrono::steady_clock;

/** The fleet under test; --quick shrinks every axis. */
struct Scenario {
  int nodes = 6250;
  int gpus_per_node = 8;
  int functions = 256;
  double rps = 40.0;        ///< per function, bursty envelope base
  int workload_s = 100;     ///< arrival window
  int run_s = 110;          ///< simulated horizon (drain included)
  int shards = 8;
};

Scenario
MakeScenario(bool quick)
{
  Scenario sc;
  if (quick) {
    sc.nodes = 128;  // 1,024 GPUs
    sc.functions = 32;
    sc.workload_s = 20;
    sc.run_s = 25;
  }
  return sc;
}

/**
 * The spec text for `sc`: autoscaled functions over rotating small
 * models, bursty arrivals (the scaler chases every burst, so the run
 * is dominated by placement/scale churn, not steady-state serving).
 */
std::string
MakeSpecText(const Scenario& sc)
{
  static const char* kModels[] = {"resnet152", "bert-base", "vgg19",
                                  "gpt2-large", "roberta-large"};
  std::string out;
  out += "experiment sharded_scaling\n";
  out += "cluster nodes=" + std::to_string(sc.nodes)
       + " gpus_per_node=" + std::to_string(sc.gpus_per_node)
       + " seed=1\n";
  for (int f = 0; f < sc.functions; ++f) {
    out += "deploy model=" + std::string(kModels[f % 5])
         + " provision=1 scaler=dilu-lazy\n";
  }
  for (int f = 0; f < sc.functions; ++f) {
    // Staggered burst phases so the fleet always has some functions
    // scaling up while others idle down — sustained churn.
    out += "workload fn=" + std::to_string(f) + " bursty rps="
         + std::to_string(static_cast<int>(sc.rps)) + " scale=1.6 len="
         + std::to_string(8 + f % 7) + "s gap="
         + std::to_string(12 + f % 11) + "s for "
         + std::to_string(sc.workload_s) + "s\n";
  }
  out += "run for " + std::to_string(sc.run_s) + "s\n";
  return out;
}

struct Row {
  int threads = 0;
  double wall_ms = 0.0;
  double speedup = 0.0;
  std::int64_t requests = 0;
};

/** One timed Run() at `threads`; fills wall clock and the report. */
Row
RunOnce(const Scenario& sc, const dilu::bench::CliOptions& opts,
        int threads, std::string* json)
{
  experiment::ExperimentSpec spec;
  std::string error;
  const std::string text = MakeSpecText(sc);
  if (!experiment::ExperimentSpec::Parse(text, &spec, &error)) {
    std::fprintf(stderr, "internal spec error: %s\n", error.c_str());
    std::exit(2);
  }
  experiment::RunOptions ropts;
  ropts.seed = opts.seed;
  experiment::ShardOptions sh;
  sh.shards = sc.shards;
  sh.threads = threads;
  experiment::Experiment exp(std::move(spec), ropts, sh);

  const auto start = Clock::now();
  const experiment::ExperimentResult result = exp.Run();
  Row row;
  row.threads = threads;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  for (const experiment::FunctionResult& f : result.functions) {
    row.requests += f.completed + f.dropped;
  }
  *json = result.ToJson();
  std::fprintf(stderr, "threads=%d  %10.1f ms  (%lld requests)\n",
               threads, row.wall_ms,
               static_cast<long long>(row.requests));
  return row;
}

void
WriteJson(std::FILE* f, const Scenario& sc,
          const dilu::bench::CliOptions& opts,
          const std::vector<Row>& rows, bool deterministic)
{
  std::string machine = "unknown";
#ifndef _WIN32
  utsname u{};
  if (uname(&u) == 0) {
    machine = std::string(u.sysname) + " " + u.release + " " + u.machine;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"dilu-sharded-bench/1\",\n");
  std::fprintf(f, "  \"machine\": \"%s\",\n", machine.c_str());
  // speedup_vs_1 is only meaningful when the host grants at least as
  // many hardware threads as the run uses; on a 1-core host the curve
  // is flat by construction and the byte-identity self-check is the
  // payload (see PERFORMANCE.md).
  std::fprintf(f, "  \"hw_threads\": %u,\n", hw);
  std::fprintf(f, "  \"scenario\": {\n");
  std::fprintf(f, "    \"gpus\": %d,\n", sc.nodes * sc.gpus_per_node);
  std::fprintf(f, "    \"nodes\": %d,\n", sc.nodes);
  std::fprintf(f, "    \"functions\": %d,\n", sc.functions);
  std::fprintf(f, "    \"shards\": %d,\n", sc.shards);
  std::fprintf(f, "    \"simulated_s\": %d,\n", sc.run_s);
  std::fprintf(f, "    \"seed\": %llu,\n",
               static_cast<unsigned long long>(opts.seed));
  std::fprintf(f, "    \"quick\": %s\n", opts.quick ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"deterministic_across_threads\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_ms\": %.1f, "
                 "\"speedup_vs_1\": %.2f, \"requests\": %lld}%s\n",
                 r.threads, r.wall_ms, r.speedup,
                 static_cast<long long>(r.requests),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
}

}  // namespace

int
main(int argc, char** argv)
{
  dilu::bench::CliOptions opts;
  if (!dilu::bench::ParseCli(argc, argv, &opts, /*default_seed=*/1)) {
    return 2;
  }
  const Scenario sc = MakeScenario(opts.quick);
  std::fprintf(stderr,
               "sharded scaling bench: %d GPUs, %d functions, "
               "shards=%d, %ds simulated\n",
               sc.nodes * sc.gpus_per_node, sc.functions, sc.shards,
               sc.run_s);

  std::vector<Row> rows;
  std::string reference;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    std::string json;
    Row row = RunOnce(sc, opts, threads, &json);
    if (rows.empty()) {
      reference = json;
    } else if (json != reference) {
      deterministic = false;
      std::fprintf(stderr,
                   "FAIL: threads=%d report diverges from threads=1\n",
                   threads);
    }
    row.speedup = rows.empty() ? 1.0 : rows.front().wall_ms / row.wall_ms;
    rows.push_back(row);
  }

  const int rc = dilu::bench::EmitReport(opts, [&](std::FILE* f) {
    WriteJson(f, sc, opts, rows, deterministic);
  });
  if (!deterministic) {
    std::fprintf(stderr,
                 "determinism self-check FAILED: see diverging runs\n");
    return 1;
  }
  return rc;
}
