/**
 * @file
 * Experiment driver: executes an ExperimentSpec end to end.
 *
 * Run() owns the pipeline every bench used to hand-roll — build the
 * cluster from the preset + overrides, deploy the functions, provision
 * warm instances, enable the co-scaling loops, schedule training
 * submissions, arm the workloads (open or closed loop, with warmup
 * gates) and the embedded chaos scenario, advance the simulation, then
 * collect a structured ExperimentResult (per-function latency
 * percentiles, SVR, cold starts, drops, availability; training
 * iterations / restarts / checkpoint costs / JCT; chaos TTR verdict;
 * cluster occupancy) and export traces when the spec asks for them.
 *
 * Sharding (docs/PARALLELISM.md): the fleet may be partitioned into N
 * independent shards, each an ordinary System run to the horizon as
 * one task of the work pool (common/work_pool.h):
 *   - nodes: split into contiguous balanced blocks; shard s owns its
 *     block's nodes, GPUs, instances, gateway, scheduler and fabric;
 *   - functions: deploy index i is homed on shard i % N, together
 *     with its workload pumps, scaler loop and training job;
 *   - chaos: each event is remapped into the sub-scenario of the shard
 *     that owns its target (fleet-wide verbs go to every shard), and
 *     each shard's engine arms its own sub-scenario.
 * Nothing crosses a shard boundary while the shards run. One shard is
 * the whole fleet under the spec's own seed and scenario, so shards=1
 * is the reference semantics every golden pins; N >= 2 is a different
 * but equally valid system whose reports are comparable at the same
 * shard count only.
 *
 * Deterministic: the result's JSON serialization is byte-identical
 * across runs of the same spec + seed + shard count, at any thread
 * count (the experiment-smoke CI job diffs exactly that).
 */
#ifndef DILU_EXPERIMENT_EXPERIMENT_H_
#define DILU_EXPERIMENT_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos_engine.h"
#include "core/system.h"
#include "experiment/experiment_spec.h"
#include "workload/arrival.h"

namespace dilu::experiment {

/** Measured outcome of one deployed function. */
struct FunctionResult {
  std::string name;
  TaskType type = TaskType::kInference;
  // --- inference ---
  std::int64_t completed = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double svr_percent = 0.0;
  int cold_starts = 0;
  int recovery_cold_starts = 0;
  std::int64_t dropped = 0;
  double availability_percent = 100.0;
  // --- overload resilience (inference; docs/OVERLOAD.md) ---
  ServiceClass service_class = ServiceClass::kStandard;
  std::int64_t admitted = 0;
  std::int64_t shed_admission = 0;  ///< admission-control rejections
  std::int64_t shed_retry = 0;      ///< retry budget / deadline sheds
  std::int64_t peak_queue = 0;      ///< peak outstanding at the gateway
  // --- training ---
  std::int64_t iterations = 0;
  int restarts = 0;
  std::int64_t lost_iterations = 0;
  int checkpoints = 0;
  double checkpoint_pause_s = 0.0;
  double jct_s = -1.0;  ///< -1 while unfinished
  double throughput_units = 0.0;
};

/** Structured outcome of one experiment run. */
struct ExperimentResult {
  std::string experiment;
  std::uint64_t seed = 0;
  double run_for_s = 0.0;
  std::vector<FunctionResult> functions;  ///< deploy order
  // --- chaos verdict (zeros when the spec embeds no scenario) ---
  chaos::ChaosVerdict chaos;
  // --- fabric totals (emitted only when the spec enabled the fabric,
  //     so legacy goldens stay byte-identical) ---
  bool fabric_enabled = false;
  std::int64_t fabric_storage_transfers = 0;
  std::int64_t fabric_network_transfers = 0;
  double fabric_storage_gb = 0.0;
  double fabric_network_gb = 0.0;
  double fabric_stall_s = 0.0;
  int fabric_max_queue = 0;
  // --- cluster aggregates ---
  int max_gpus = 0;
  double avg_gpus = 0.0;  ///< time-averaged occupied GPUs (1 Hz samples)
  double gpu_seconds = 0.0;
  std::int64_t total_completed = 0;
  std::int64_t total_dropped = 0;
  std::int64_t total_shed = 0;  ///< admission + retry sheds, all fns
  int total_cold_starts = 0;
  double overall_svr_percent = 0.0;
  double overall_availability_percent = 100.0;
  /**
   * Every requested trace CSV was written (true when no export was
   * requested). Not part of the JSON — it describes this process's
   * filesystem, not the simulated outcome.
   */
  bool export_ok = true;

  /**
   * Deterministic JSON rendering (schema dilu-experiment/1): fixed key
   * order and formatting, no wall-clock or machine fields, so two runs
   * of the same spec + seed serialize byte-identically.
   */
  std::string ToJson() const;
};

/**
 * Seed of workload stream `index` under cluster seed `base`: stable,
 * well-mixed, and disjoint from the chaos-surge streams (which derive
 * from the event index inside the chaos engine). The driver passes the
 * *global* workload index, so a stream's seed does not depend on the
 * shard count.
 */
std::uint64_t WorkloadStreamSeed(std::uint64_t base, std::size_t index);

/** The arrival process a WorkloadSpec describes, seeded. */
std::unique_ptr<workload::ArrivalProcess> BuildArrivalProcess(
    const WorkloadSpec& w, std::uint64_t stream_seed);

/** Run-time knobs that are not part of the spec. */
struct RunOptions {
  /** Overrides the spec / preset cluster seed when non-zero. */
  std::uint64_t seed = 0;
  /** Overrides the spec's export prefix when non-empty. */
  std::string export_prefix;
};

/** How the fleet is partitioned and how many threads run it. */
struct ShardOptions {
  int shards = 1;   ///< requested shards (clamped to the node count)
  int threads = 1;  ///< worker threads (clamped to [1, shards])
};

/** One executable instance of a spec (single-shot). */
class Experiment {
 public:
  /**
   * Builds the (per-shard) clusters and deploys the spec's functions;
   * with one shard the function ids are the deploy indexes. Workloads,
   * chaos and the clock do not move until Run().
   */
  explicit Experiment(ExperimentSpec spec, RunOptions opts = {},
                      ShardOptions shard_opts = {});
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /**
   * Execute the whole pipeline; callable once. Exports traces when the
   * spec (or RunOptions) names a prefix; with several shards, shard k's
   * slice of the fleet goes under the prefix plus "_s<k>".
   */
  ExperimentResult Run();

  const ExperimentSpec& spec() const { return spec_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  /** Shard `s`'s cluster, for inspection (fault logs, series, audits). */
  cluster::ClusterRuntime& runtime(int s = 0);

  /**
   * Test probe: called once with the horizon after every shard
   * finished, before collection. Set before Run().
   */
  void set_barrier_probe(std::function<void(TimeUs)> probe)
  {
    probe_ = std::move(probe);
  }

 private:
  struct Shard {
    std::unique_ptr<core::System> system;
    std::unique_ptr<chaos::ChaosEngine> engine;
    chaos::ScenarioSpec scenario;    ///< remapped sub-scenario
    std::vector<FunctionId> fn_ids;  ///< by local deploy order
    NodeId first_node = 0;
    int nodes = 0;
  };

  int OwnerOfNode(NodeId node) const;
  void SplitChaos();
  void ArmWorkload(std::size_t index);
  ExperimentResult Collect() const;

  ExperimentSpec spec_;
  RunOptions opts_;
  int threads_ = 1;
  std::uint64_t seed_ = 0;  ///< effective global seed (reported)
  int gpus_per_node_ = 0;
  std::vector<Shard> shards_;
  /** deploy index -> (home shard, local deploy index). */
  std::vector<std::pair<int, std::size_t>> homes_;
  /**
   * Per chaos event in time order: its (shard, local index) copies —
   * the shard sub-scenarios are built in time order, so a copy's
   * insertion index is its index in that shard engine's outcomes.
   */
  std::vector<std::vector<std::pair<int, std::size_t>>> chaos_copies_;
  std::function<void(TimeUs)> probe_;
  bool ran_ = false;
};

}  // namespace dilu::experiment

#endif  // DILU_EXPERIMENT_EXPERIMENT_H_
