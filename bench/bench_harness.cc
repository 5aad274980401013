/**
 * @file
 * Hot-path performance harness: measures the simulator's three hottest
 * layers under wall-clock and throughput counters and emits a
 * machine-readable JSON report (the BENCH_*.json trajectory format, see
 * PERFORMANCE.md for the schema).
 *
 * Suites:
 *  - event_queue_schedule_fire: schedule N events, drain them.
 *  - event_queue_mixed_cancel: schedule/cancel/fire interleaved (the
 *    pattern periodic tasks + batch completions produce).
 *  - token_tick_8: one RCKM token period for a GPU hosting 8 instances.
 *  - sched_micro_3200: synthetic 3,200-instance placement on 4,000 GPUs.
 *  - fig17_placement: the paper's Fig 17 large-scale pass — 3,200
 *    instances with the 2:2:6 train:LLM-inf:inf mix under the Dilu
 *    scheduler (placement only, as in the paper).
 *  - fig17_churn: 21 churn steps (0..20) of arrivals/departures at
 *    Fig 17 scale.
 *  - fabric_transfer_1k: mixed storage/network transfer submission
 *    throughput through a 1,000-node fabric plane (BENCH_03).
 *  - fabric_ckpt_stall_1k / fabric_ckpt_stall_10k: checkpoint-storm
 *    rounds at 1k and 10k concurrent jobs — the O(1) frontier model's
 *    scaling headroom (BENCH_03).
 *  - latency_quantiles: 64 per-function latency trackers of 26k
 *    samples each (about one churn_fleet run's worth), then the
 *    p50/p95/p99/mean every report reads (BENCH_06).
 *
 * Flags:
 *  --quick      fewer repetitions (CI smoke; timing still reported)
 *  --seed N     workload seed for the scheduler suites, echoed into the
 *               JSON so runs are reproducible and diffable across
 *               machines (any value is a real seed, including 0).
 *               Without it the suites use the historical per-suite
 *               seeds (42/9/7) the checked-in BENCH_*.json reports
 *               were recorded under (PERFORMANCE.md).
 *  --out FILE   write the JSON report to FILE instead of stdout
 *
 * Each suite runs `reps` times and reports the best (minimum) wall
 * clock, which is the standard way to suppress scheduler noise on a
 * shared machine.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/utsname.h>
#endif

#include "bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "fabric/fabric.h"
#include "rckm/token_manager.h"
#include "scheduler/scheduler.h"
#include "sim/event_queue.h"

namespace {

using namespace dilu;
// dilu-lint: allow(wall-clock the bench harness measures real elapsed time by design)
using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  std::int64_t ops = 0;       ///< operations per repetition
  int reps = 0;               ///< repetitions executed
  double best_wall_ms = 0.0;  ///< minimum wall clock over reps
  double ops_per_sec = 0.0;   ///< ops / best_wall
};

double ElapsedMs(Clock::time_point start)
{
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/** Run `body` `reps` times; record the best wall clock. */
template <typename Body>
BenchResult RunBench(const std::string& name, std::int64_t ops, int reps,
                     Body&& body)
{
  BenchResult r;
  r.name = name;
  r.ops = ops;
  r.reps = reps;
  r.best_wall_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    body();
    r.best_wall_ms = std::min(r.best_wall_ms, ElapsedMs(start));
  }
  r.ops_per_sec = r.best_wall_ms > 0.0
      ? static_cast<double>(r.ops) / (r.best_wall_ms / 1e3)
      : 0.0;
  std::fprintf(stderr, "%-28s %10.3f ms   %12.0f ops/s\n", name.c_str(),
               r.best_wall_ms, r.ops_per_sec);
  return r;
}

// --- event queue suites ----------------------------------------------

volatile int g_sink = 0;

BenchResult BenchEventScheduleFire(bool quick)
{
  // Sliding-window pattern matching the simulator's real behavior: the
  // queue holds one event per periodic task / in-flight batch (a few
  // thousand), and each fired event schedules a successor.
  const int kDepth = 5000;
  const int kOps = quick ? 50000 : 500000;
  const int reps = quick ? 3 : 8;
  return RunBench("event_queue_schedule_fire", kOps, reps, [&] {
    sim::EventQueue q;
    // Non-monotone insertion times exercise the heap (pure FIFO would
    // degenerate to an append).
    for (int i = 0; i < kDepth; ++i) {
      q.ScheduleAt((i * 7) % 1000, [] { ++g_sink; });
    }
    for (int i = 0; i < kOps; ++i) {
      q.RunOne();
      q.ScheduleAt(q.now() + 1 + (i * 13) % 1000, [] { ++g_sink; });
    }
    while (q.RunOne()) {
    }
  });
}

BenchResult BenchEventMixedCancel(bool quick)
{
  const int kRounds = quick ? 5000 : 50000;
  const int reps = quick ? 3 : 8;
  // Per round: schedule 4, cancel 2, fire 2 -> 6 queue ops.
  return RunBench("event_queue_mixed_cancel", kRounds * 6, reps, [&] {
    sim::EventQueue q;
    sim::EventId pending[4];
    for (int r = 0; r < kRounds; ++r) {
      const TimeUs base = q.now();
      for (int i = 0; i < 4; ++i) {
        pending[i] = q.ScheduleAt(base + 1 + (i * 7) % 11,
                                  [] { ++g_sink; });
      }
      q.Cancel(pending[1]);
      q.Cancel(pending[3]);
      q.RunOne();
      q.RunOne();
      q.RunUntil(base + 20);
    }
  });
}

// --- RCKM token suite -------------------------------------------------

BenchResult BenchTokenTick(bool quick)
{
  const int kTicks = quick ? 20000 : 200000;
  const int reps = quick ? 3 : 8;
  rckm::TokenManager tm;
  std::vector<rckm::InstanceSample> samples;
  for (InstanceId id = 1; id <= 8; ++id) {
    rckm::InstanceSample s;
    s.id = id;
    s.slo_sensitive = (id % 2 == 0);
    s.quota = {0.1, 0.2};
    s.blocks_launched = 50.0 * id;
    s.klc_inflation = id == 2 ? 0.5 : 0.0;
    samples.push_back(s);
  }
  return RunBench("token_tick_8", kTicks, reps, [&] {
    for (int t = 0; t < kTicks; ++t) {
      const auto& grants = tm.Tick(samples);
      g_sink += static_cast<int>(grants.size());
    }
  });
}

// --- scheduler suites -------------------------------------------------

/**
 * Per-suite workload seed: without --seed the historical constants
 * (42/9/7), so default runs stay diffable against existing
 * BENCH_*.json files; a user seed derives distinct per-suite streams
 * from one number (seed 0 included — there is no sentinel).
 */
std::uint64_t SuiteSeed(const dilu::bench::CliOptions& opts,
                        std::uint64_t legacy, std::uint64_t index)
{
  return opts.seed_given ? opts.seed + index : legacy;
}

BenchResult BenchSchedMicro(bool quick, const bench::CliOptions& opts)
{
  const int reps = quick ? 2 : 5;
  return RunBench("sched_micro_3200", 3200, reps, [&] {
    scheduler::ClusterState cs = bench::MakeFig17Cluster();
    scheduler::DiluScheduler sched;
    Rng rng(SuiteSeed(opts, 9, 1));
    for (InstanceId id = 0; id < 3200; ++id) {
      scheduler::PlacementRequest req;
      req.function = id % 200;
      req.quota.request = rng.Uniform(0.1, 0.5);
      req.quota.limit = std::min(1.0, req.quota.request * 2.0);
      req.mem_gb = rng.Uniform(2.0, 20.0);
      req.affinity = {req.function};
      const auto placement = sched.Place(req, cs);
      if (placement.ok) {
        cs.Commit(id, req.function,
                  {{placement.gpus[0], req.quota, req.mem_gb}});
      }
    }
  });
}

BenchResult BenchFig17Placement(bool quick, const bench::CliOptions& opts)
{
  const int reps = quick ? 2 : 5;
  return RunBench("fig17_placement", 3200, reps, [&] {
    Rng rng(SuiteSeed(opts, 42, 2));
    scheduler::ClusterState state = bench::MakeFig17Cluster();
    scheduler::DiluScheduler sched;
    for (InstanceId id = 0; id < 3200; ++id) {
      bench::MixInstance def = bench::DrawMixInstance(&rng);
      const auto placement = sched.Place(def.request, state);
      if (!placement.ok) continue;
      std::vector<scheduler::ShardCommit> commits;
      for (GpuId g : placement.gpus) {
        commits.push_back({g, def.request.quota, def.request.mem_gb});
      }
      state.Commit(id, def.request.function, commits);
    }
    g_sink += state.ActiveGpuCount();
  });
}

BenchResult BenchFig17Churn(bool quick, const bench::CliOptions& opts)
{
  const int reps = quick ? 1 : 3;
  const int kSteps = 20;
  // ops = total arrivals across steps 0..20 (10 ramp + 11 churn).
  return RunBench("fig17_churn", 10 * 200 + 11 * 120, reps, [&] {
    Rng rng(SuiteSeed(opts, 7, 3));
    scheduler::ClusterState state = bench::MakeFig17Cluster();
    scheduler::DiluScheduler sched;
    std::vector<InstanceId> live;
    InstanceId next = 0;
    for (int step = 0; step <= kSteps; ++step) {
      const int arrivals = bench::Fig17ChurnArrivals(step);
      const int departures = bench::Fig17ChurnDepartures(step);
      for (int a = 0; a < arrivals; ++a) {
        bench::MixInstance def = bench::DrawMixInstance(&rng);
        const auto placement = sched.Place(def.request, state);
        if (!placement.ok) continue;
        std::vector<scheduler::ShardCommit> commits;
        for (GpuId g : placement.gpus) {
          commits.push_back({g, def.request.quota, def.request.mem_gb});
        }
        state.Commit(next, def.request.function, commits);
        live.push_back(next++);
      }
      for (int d = 0; d < departures && !live.empty(); ++d) {
        const std::size_t victim = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(live.size() - 1)));
        state.Release(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    g_sink += state.ActiveGpuCount();
  });
}

// --- fabric suites ----------------------------------------------------

BenchResult BenchFabricTransfer(bool quick)
{
  const int kOps = quick ? 20000 : 200000;
  const int reps = quick ? 3 : 8;
  return RunBench("fabric_transfer_1k", kOps, reps, [&] {
    fabric::FabricConfig cfg;
    cfg.enabled = true;
    cfg.storage_devices = 8;
    fabric::FabricPlane fp(cfg, 1000, 11);
    Rng rng(11);
    TimeUs now = 0;
    for (int i = 0; i < kOps; ++i) {
      now += 5;
      const NodeId src = static_cast<NodeId>(i % 1000);
      if ((i & 1) == 0) {
        fp.SubmitStorage(src, rng.Uniform(0.05, 0.5), now);
      } else {
        fp.SubmitNetwork(src, static_cast<NodeId>((i * 7) % 1000),
                         rng.Uniform(0.01, 0.1), now);
      }
      // Periodic 1 Hz-style sampling keeps the flight queues harvested,
      // matching the runtime's real usage pattern.
      if ((i & 4095) == 0) fp.Sample(now);
    }
    g_sink += fp.totals().max_queue;
  });
}

BenchResult BenchFabricCheckpointStall(bool quick, int jobs,
                                       const std::string& name)
{
  // Checkpoint storm: every job snapshots 1.65 GB (vgg19 x3) into a
  // 16-device store each round; the frontier model resolves each storm
  // in O(jobs) regardless of how deep the emergent stalls get.
  const int kRounds = 4;
  const int reps = quick ? 2 : 5;
  return RunBench(name, static_cast<std::int64_t>(jobs) * kRounds, reps,
                  [&] {
    fabric::FabricConfig cfg;
    cfg.enabled = true;
    cfg.storage_devices = 16;
    fabric::FabricPlane fp(cfg, jobs, 13);
    TimeUs now = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (int j = 0; j < jobs; ++j) {
        fp.SubmitStorage(static_cast<NodeId>(j), 1.65, now);
      }
      now += Sec(600);
      fp.Sample(now);  // harvest the drained round
    }
    g_sink += fp.totals().max_queue;
  });
}

// --- metrics suites ---------------------------------------------------

BenchResult BenchLatencyQuantiles(bool quick)
{
  constexpr int kTrackers = 64;
  constexpr int kSamples = 26000;
  const int reps = quick ? 2 : 5;
  // Latency-shaped durations drawn once, outside the timed body:
  // a 20 ms floor plus an exponential queueing tail.
  Rng rng(17);
  std::vector<TimeUs> durations(
      static_cast<std::size_t>(kTrackers) * kSamples);
  for (TimeUs& d : durations) {
    d = Ms(20) + static_cast<TimeUs>(rng.Exponential(40000.0));
  }
  return RunBench("latency_quantiles",
                  static_cast<std::int64_t>(durations.size()), reps, [&] {
    double sum = 0.0;
    for (int t = 0; t < kTrackers; ++t) {
      Percentiles p;
      const std::size_t base = static_cast<std::size_t>(t) * kSamples;
      for (std::size_t i = base; i < base + kSamples; ++i) {
        p.Add(durations[i]);
      }
      sum += p.P50() + p.P95() + p.P99() + p.mean();
    }
    g_sink += static_cast<int>(sum) & 1;
  });
}

// --- report -----------------------------------------------------------

std::string MachineString()
{
#ifndef _WIN32
  struct utsname u;
  if (uname(&u) == 0) {
    return std::string(u.sysname) + " " + u.release + " " + u.machine;
  }
#endif
  return "unknown";
}

void WriteJson(std::FILE* out, const std::vector<BenchResult>& results,
               bool quick, const bench::CliOptions& opts)
{
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"dilu-bench/1\",\n");
  std::fprintf(out, "  \"machine\": \"%s\",\n", MachineString().c_str());
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(opts.seed));
  std::fprintf(out, "  \"legacy_seeds\": %s,\n",
               opts.seed_given ? "false" : "true");
#ifdef NDEBUG
  std::fprintf(out, "  \"build\": \"Release\",\n");
#else
  std::fprintf(out, "  \"build\": \"Debug\",\n");
#endif
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ops\": %lld, \"reps\": %d, "
                 "\"best_wall_ms\": %.4f, \"ops_per_sec\": %.1f}%s\n",
                 r.name.c_str(), static_cast<long long>(r.ops), r.reps,
                 r.best_wall_ms, r.ops_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int
main(int argc, char** argv)
{
  bench::CliOptions opts;
  if (!bench::ParseCli(argc, argv, &opts)) return 2;

  std::vector<BenchResult> results;
  results.push_back(BenchEventScheduleFire(opts.quick));
  results.push_back(BenchEventMixedCancel(opts.quick));
  results.push_back(BenchTokenTick(opts.quick));
  results.push_back(BenchSchedMicro(opts.quick, opts));
  results.push_back(BenchFig17Placement(opts.quick, opts));
  results.push_back(BenchFig17Churn(opts.quick, opts));
  results.push_back(BenchFabricTransfer(opts.quick));
  results.push_back(
      BenchFabricCheckpointStall(opts.quick, 1000, "fabric_ckpt_stall_1k"));
  results.push_back(
      BenchFabricCheckpointStall(opts.quick, 10000, "fabric_ckpt_stall_10k"));
  results.push_back(BenchLatencyQuantiles(opts.quick));

  return bench::EmitReport(opts, [&](std::FILE* f) {
    WriteJson(f, results, opts.quick, opts);
  });
}
