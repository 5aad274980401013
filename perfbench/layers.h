/**
 * @file
 * Per-layer measurement from outside the program: a 1 Hz probe armed
 * through Simulation::SchedulePeriodic, and replays that time single
 * public calls of one layer in isolation. Nothing here changes code
 * under src/; the probe only reads.
 */
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "experiment/experiment_spec.h"

namespace perfbench {

/** What one runtime's 1 Hz probe saw, one entry per firing. */
struct ProbeLog {
  std::vector<double> step_ms;  ///< host ms since the previous firing
  std::vector<int> occupied_gpus;
  std::vector<int> live_instances;
  std::vector<int> idle_instances;  ///< empty queue, no batch in flight
  std::size_t pending_events_max = 0;
  int collocation_max = 0;  ///< most instances seen on one GPU
};

/**
 * Arm the probe on `rt` (before the run). `log` must outlive the run;
 * with several shards each runtime gets its own log, so worker threads
 * never share one.
 */
void ArmProbe(dilu::cluster::ClusterRuntime& rt, ProbeLog* log);

/** Most distinct instances attached to one GPU of `rt` right now. */
int MaxCollocation(dilu::cluster::ClusterRuntime& rt);

/**
 * Host µs of one GpuGroup::TickOnce() on a fleet of `fleet` GPUs with
 * `occupied` of them holding one stub client each (Dilu arbiters).
 */
double ReplayGpuTickUs(int fleet, int occupied);

/**
 * Host µs of one 5 ms quantum of a single GPU holding `collocation`
 * stub clients: demand collection, the DiluArbiter's token period and
 * grant delivery.
 */
double ReplayRckmTickUs(int collocation);

/**
 * Host µs of one LaunchInference(fn, warm) + ScaleInOne(fn) pair on
 * `rt`'s fleet, cycling over its inference functions. Call on a freshly
 * constructed experiment (it launches instances without running).
 */
double ReplayPlacementUs(dilu::cluster::ClusterRuntime& rt);

/**
 * Host ns of one ArrivalProcess::NextGap() over the spec's workload
 * streams, each built as the experiment builds it.
 */
double ReplayArrivalGapNs(const dilu::experiment::ExperimentSpec& spec,
                          std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
