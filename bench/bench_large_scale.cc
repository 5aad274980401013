/**
 * @file
 * Fig 17 reproduction: large-scale cluster simulation — 1000 nodes x
 * 4 GPUs, up to 3,200 DL instances with the paper's 2:2:6 mix of
 * training, LLM inference and non-LLM inference.
 *
 * This is a placement-level simulation (as in the paper): it exercises
 * the schedulers and fragmentation accounting without per-kernel
 * execution. Reports SM/memory fragmentation and occupied GPU counts at
 * 800/1600/2400/3200 instances for Exclusive, INFless+-l and Dilu, a
 * churn-phase GPU-count time series, and Fig 18(a): the Dilu stream
 * placed again under each oversubscription cap gamma.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "scheduler/baseline_schedulers.h"
#include "scheduler/scheduler.h"

namespace {

using namespace dilu;

std::unique_ptr<scheduler::Scheduler>
MakeSched(const std::string& kind)
{
  if (kind == "exclusive") {
    return std::make_unique<scheduler::ExclusiveScheduler>();
  }
  if (kind == "infless+-l") {
    return std::make_unique<scheduler::StaticQuotaScheduler>("infless+-l",
                                                             1.0);
  }
  return std::make_unique<scheduler::DiluScheduler>();
}

std::string QuotaModeFor(const std::string& kind)
{
  if (kind == "exclusive") return "full";
  if (kind == "infless+-l") return "limit";
  return "dilu";
}

/**
 * Place Fig 17's 3,200-instance stream (Rng(42), the same for every
 * system) with `sched`; when `label` is set, print a row every 800
 * placements and the failure count.
 */
scheduler::ClusterState
PlaceStream(scheduler::Scheduler* sched, const std::string& quota_mode,
            const char* label)
{
  Rng rng(42);
  scheduler::ClusterState state = bench::MakeFig17Cluster();
  int placed = 0;
  int failed = 0;
  for (InstanceId id = 0; id < 3200; ++id) {
    bench::MixInstance def = bench::DrawMixInstance(&rng, quota_mode);
    const auto placement = sched->Place(def.request, state);
    if (!placement.ok) {
      ++failed;
      continue;
    }
    std::vector<scheduler::ShardCommit> commits;
    for (GpuId g : placement.gpus) {
      commits.push_back({g, def.request.quota, def.request.mem_gb});
    }
    state.Commit(id, def.request.function, commits);
    ++placed;
    if (label != nullptr && placed % 800 == 0) {
      std::printf("%-12s %10d %12d %12.2f %12.2f\n", label, placed,
                  state.ActiveGpuCount(), state.SmFragmentation(),
                  state.MemoryFragmentation());
    }
  }
  if (label != nullptr && failed > 0) {
    std::printf("%-12s (%d placements failed: cluster exhausted)\n",
                label, failed);
  }
  return state;
}

}  // namespace

int
main()
{
  const char* systems[] = {"exclusive", "infless+-l", "dilu"};
  std::printf("=== Fig 17: 1000-node / 4000-GPU simulation, 2:2:6 "
              "train:LLM-inf:inf mix ===\n\n");
  std::printf("%-12s %10s %12s %12s %12s\n", "system", "instances",
              "GPUs used", "SM frag", "mem frag");

  int gpus_at_3200[3] = {0, 0, 0};
  int idx = 0;
  for (const char* sys : systems) {
    auto sched = MakeSched(sys);
    gpus_at_3200[idx++] =
        PlaceStream(sched.get(), QuotaModeFor(sys), sys).ActiveGpuCount();
    std::printf("\n");
  }
  std::printf("cost reduction at 3200 instances: Dilu vs Exclusive "
              "%.0f%%, vs INFless+-l %.0f%%\n",
              100.0 * (1.0 - static_cast<double>(gpus_at_3200[2])
                                 / gpus_at_3200[0]),
              100.0 * (1.0 - static_cast<double>(gpus_at_3200[2])
                                 / gpus_at_3200[1]));
  std::printf("(paper: 30%% vs Exclusive and 23%% vs INFless+-l)\n\n");

  // Fig 18(a): the Dilu stream under each oversubscription cap.
  std::printf("=== Fig 18(a): oversubscription coefficient gamma "
              "(3200 instances, Dilu) ===\n");
  std::printf("%8s %12s %12s %12s\n", "gamma", "GPUs used", "SM frag",
              "mem frag");
  for (double gamma : {1.0, 1.25, 1.5, 2.0, 2.5}) {
    scheduler::DiluSchedulerConfig cfg;
    cfg.gamma = gamma;
    scheduler::DiluScheduler sched(cfg);
    const scheduler::ClusterState state =
        PlaceStream(&sched, "dilu", nullptr);
    std::printf("%8.2f %12d %12.2f %12.2f\n", gamma,
                state.ActiveGpuCount(), state.SmFragmentation(),
                state.MemoryFragmentation());
  }
  std::printf("(gamma >= 2 never binds: every profiled limit is at most "
              "2x its request and Omega = 1 caps the request sum; paper: "
              "diminishing returns beyond 1.5)\n\n");

  // Churn phase: instances arrive and depart; GPU count over time.
  std::printf("=== Fig 17 (bottom): GPU count over time under churn "
              "===\n");
  std::printf("%8s %12s %12s %12s\n", "step", "exclusive", "infless+-l",
              "dilu");
  struct Churn {
    scheduler::ClusterState state;
    std::unique_ptr<scheduler::Scheduler> sched;
    Rng rng{7};
    std::vector<InstanceId> live;
    InstanceId next = 0;
  };
  Churn churn[3];
  for (int s = 0; s < 3; ++s) {
    churn[s].state = bench::MakeFig17Cluster();
    churn[s].sched = MakeSched(systems[s]);
  }
  for (int step = 0; step <= 20; ++step) {
    std::printf("%8d", step);
    for (int s = 0; s < 3; ++s) {
      Churn& c = churn[s];
      // Ramp up for 10 steps, then churn (arrivals ~ departures).
      const int arrivals = bench::Fig17ChurnArrivals(step);
      const int departures = bench::Fig17ChurnDepartures(step);
      for (int a = 0; a < arrivals; ++a) {
        bench::MixInstance def =
            bench::DrawMixInstance(&c.rng, QuotaModeFor(systems[s]));
        const auto placement = c.sched->Place(def.request, c.state);
        if (!placement.ok) continue;
        std::vector<scheduler::ShardCommit> commits;
        for (GpuId g : placement.gpus) {
          commits.push_back({g, def.request.quota, def.request.mem_gb});
        }
        c.state.Commit(c.next, def.request.function, commits);
        c.live.push_back(c.next++);
      }
      for (int d = 0; d < departures && !c.live.empty(); ++d) {
        const std::size_t victim = static_cast<std::size_t>(
            c.rng.UniformInt(0, static_cast<std::int64_t>(
                                    c.live.size() - 1)));
        c.state.Release(c.live[victim]);
        c.live.erase(c.live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      std::printf(" %12d", c.state.ActiveGpuCount());
    }
    std::printf("\n");
  }
  return 0;
}
