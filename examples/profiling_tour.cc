/**
 * @file
 * Profiling tour: run the multi-factor profiler over the whole model
 * catalog and print the resourcing metadata Dilu's scheduler consumes —
 * the <request, limit> quotas, inference batch sizes and the Hybrid
 * Growth Search trail.
 *
 *   $ ./build/examples/profiling_tour
 */
#include <cstdio>

#include "models/cost_model.h"
#include "profiler/inference_profiler.h"
#include "profiler/training_profiler.h"

int
main()
{
  using namespace dilu;
  std::printf("=== inference profiling (Hybrid Growth Search) ===\n");
  std::printf("%-14s %5s %9s %7s %8s %7s  path\n", "model", "IBS",
              "request", "limit", "TE", "trials");
  for (const auto& m : models::AllModels()) {
    const auto p = profiler::ProfileInference(m);
    std::printf("%-14s %5d %8.0f%% %6.0f%% %8.0f %7d  ", m.name.c_str(),
                p.ibs, p.quota.request * 100, p.quota.limit * 100, p.te,
                p.trials);
    for (const auto& t : p.path) {
      std::printf("(%d,%.0f%%)%s ", t.ibs, t.smr * 100,
                  t.meets_slo ? "" : "x");
    }
    std::printf("\n");
  }

  std::printf("\n=== training profiling (binary search, p=0.8 / 1.0) "
              "===\n");
  std::printf("%-14s %9s %7s %7s %18s\n", "model", "request", "limit",
              "trials", "tput@request");
  for (const auto& m : models::AllModels()) {
    const auto p = profiler::ProfileTraining(m);
    std::printf("%-14s %8.0f%% %6.0f%% %7d %12.0f %s\n", m.name.c_str(),
                p.quota.request * 100, p.quota.limit * 100, p.trials,
                models::TrainingThroughputUnits(m, p.quota.request, 1),
                m.throughput_unit.c_str());
  }
  return 0;
}
