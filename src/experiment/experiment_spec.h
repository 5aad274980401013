/**
 * @file
 * Declarative whole-experiment specifications.
 *
 * An ExperimentSpec composes the full evaluation stack as data: the
 * cluster (preset + overrides), the deployed functions (inference /
 * training, incl. checkpoint policy), each function's workload
 * (constant / poisson / gamma / Azure-archetype envelopes, open or
 * closed loop, with start, warmup and duration), an embedded chaos
 * ScenarioSpec, the run horizon and the trace-export prefix. Like the
 * chaos layer's ScenarioSpec it is pure data with two faces — a fluent
 * C++ builder and a line-oriented text format that round-trips
 * byte-identically — so whole paper figures are diffable files under
 * experiments/ instead of hand-wired translation units (the
 * `dilu_run` CLI executes them; docs/EXPERIMENTS.md has the grammar).
 *
 * Determinism: a spec carries no randomness. Every stochastic stream
 * (arrival gaps, trace envelopes, chaos surges) derives its seed from
 * the cluster seed and a stable per-workload index, so the same spec +
 * seed replays bit-for-bit.
 */
#ifndef DILU_EXPERIMENT_EXPERIMENT_SPEC_H_
#define DILU_EXPERIMENT_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "common/types.h"
#include "core/function_spec.h"

namespace dilu::cluster {
struct ClusterConfig;
}  // namespace dilu::cluster

namespace dilu::experiment {

/**
 * Cluster composition: a named preset plus explicit
 * overrides. Only set fields are printed / applied, so a spec stays a
 * minimal diff against its preset.
 */
struct ClusterSection {
  /** A cluster::kPresets name. */
  std::string preset = "dilu";
  std::optional<int> nodes;
  std::optional<int> gpus_per_node;
  std::optional<std::string> scheduler;   ///< "dilu"|"exclusive"|"static"
  std::optional<std::string> sharing;     ///< "dilu"|"static"|"tgs"|"fastgs"
  std::optional<std::string> quota_mode;  ///< "dilu"|"limit"|"request"|"full"
  std::optional<std::string> recovery;    ///< "joint"|"greedy"
  std::optional<bool> warm_starts;
  /** Ablations: DiluSchedulerConfig::resource_complementarity / _affinity. */
  std::optional<bool> resource_complementarity;
  std::optional<bool> workload_affinity;
  /** RCKM MaxTokens per token period (Fig 18(b)). */
  std::optional<double> max_tokens;
  std::optional<std::uint64_t> seed;
};

/**
 * Fabric tiers (src/fabric/): the presence of a `storage` or `nic`
 * line in a spec enables the fabric plane — checkpoint saves, cold
 * starts and drain migrations then resolve through contended transfer
 * frontiers instead of constant costs. Only set keys are printed, so
 * the section stays a minimal diff against FabricConfig's defaults.
 */
struct FabricSection {
  bool storage = false;  ///< a `storage` line appeared
  bool nic = false;      ///< a `nic` line appeared
  std::optional<double> storage_bw;       ///< bw=<GB/s>
  std::optional<double> storage_gc;       ///< gc=<duty in [0, 0.9]>
  std::optional<int> storage_devices;     ///< devices=<count>
  std::optional<double> nic_rate;         ///< rate=<GB/s>
  std::optional<double> nic_burst;        ///< burst=<GB>

  /** The fabric plane is built iff either line appeared. */
  bool enabled() const { return storage || nic; }
};

/** One function deployment plus its experiment-level wiring. */
struct DeploySpec {
  /** The function itself (model, task, shards/workers, checkpoints). */
  core::FunctionSpec fn;
  /** Warm instances provisioned at t = 0 (inference). */
  int provision = 0;
  /** Autoscaler policy name ("" = none): "dilu-lazy"|"eager"|"keep-alive". */
  std::string scaler;
  /** Training submission time (cold StartTraining fires here). */
  TimeUs start = 0;
  /**
   * Pinned GPUs (`on=`): one warm instance launched on exactly these
   * GPUs at t = 0, one per shard (inference) or worker (training),
   * before any scheduler placement. Empty = placed by the scheduler.
   */
  std::vector<GpuId> on;
};

/** How a workload's arrivals are generated. */
enum class ArrivalKind {
  kConstant,
  kPoisson,
  kGamma,
  kBursty,    ///< Azure bursty archetype envelope
  kPeriodic,  ///< Azure periodic archetype envelope
  kSporadic,  ///< Azure sporadic archetype envelope
  kClosed,    ///< closed loop: N clients, think-time gaps
};

/** Spec-format keyword for `kind` (e.g. "poisson"). */
const char* ToString(ArrivalKind kind);

/** One workload attached to one deployed function. */
struct WorkloadSpec {
  int fn = 0;  ///< deploy index (order of `deploy` lines, 0-based)
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rps = 10.0;  ///< mean / base request rate (open-loop kinds)
  // --- gamma ---
  double cv = 1.0;  ///< coefficient of variation
  // --- bursty archetype ---
  double scale = 4.0;          ///< peak = base * scale
  TimeUs burst_len = Sec(30);  ///< surge length
  TimeUs burst_gap = Sec(90);  ///< mean gap between surges
  // --- periodic archetype ---
  double amplitude = 0.8;   ///< swing as a fraction of base
  TimeUs period = Sec(120);  ///< oscillation period
  // --- sporadic archetype ---
  double active = 0.15;   ///< fraction of seconds with traffic
  TimeUs spike = Sec(8);  ///< length of each active episode
  // --- closed loop ---
  int clients = 1;         ///< concurrent virtual users
  TimeUs think = Ms(100);  ///< mean think time between requests
  // --- window (all kinds) ---
  TimeUs start = 0;     ///< arrivals begin here
  TimeUs warmup = 0;    ///< leading window excluded from metrics
  TimeUs duration = 0;  ///< driven time after warmup (required, > 0)
  /** Explicit stream seed; unset = derived from cluster seed + index. */
  std::optional<std::uint64_t> seed;

  /** Last instant this workload issues arrivals. */
  TimeUs end() const { return start + warmup + duration; }
};

/** A named, declarative whole-experiment description. */
class ExperimentSpec {
 public:
  ExperimentSpec() = default;
  explicit ExperimentSpec(std::string name) : name_(std::move(name)) {}

  // --- fluent builder --------------------------------------------------
  ClusterSection& cluster() { return cluster_; }
  const ClusterSection& cluster() const { return cluster_; }

  /** The fabric tiers (set `storage` / `nic` to enable; see above). */
  FabricSection& fabric() { return fabric_; }
  const FabricSection& fabric() const { return fabric_; }

  /** Add an inference deployment; returned ref tweaks the rest. */
  DeploySpec& AddInference(const std::string& model);

  /** Add a training deployment. */
  DeploySpec& AddTraining(const std::string& model, int workers,
                          std::int64_t iterations = 0);

  WorkloadSpec& AddConstant(int fn, double rps, TimeUs duration);
  WorkloadSpec& AddPoisson(int fn, double rps, TimeUs duration);
  WorkloadSpec& AddGamma(int fn, double rps, double cv, TimeUs duration);
  /** Azure-archetype envelope workload (kBursty/kPeriodic/kSporadic). */
  WorkloadSpec& AddTrace(int fn, ArrivalKind kind, double rps,
                         TimeUs duration);
  WorkloadSpec& AddClosedLoop(int fn, int clients, TimeUs think,
                              TimeUs duration);

  /** The embedded chaos scenario (builder access). */
  chaos::ScenarioSpec& chaos() { return chaos_; }
  const chaos::ScenarioSpec& chaos() const { return chaos_; }

  /** Simulation horizon; 0 = derived (see EffectiveRunFor). */
  ExperimentSpec& RunFor(TimeUs duration);

  /** Trace-export prefix ("" = no export). */
  ExperimentSpec& ExportTo(std::string prefix);

  // --- accessors -------------------------------------------------------
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const std::vector<DeploySpec>& deploys() const { return deploys_; }
  std::vector<DeploySpec>& deploys() { return deploys_; }
  const std::vector<WorkloadSpec>& workloads() const { return workloads_; }
  std::vector<WorkloadSpec>& workloads() { return workloads_; }
  TimeUs run_for() const { return run_for_; }
  const std::string& export_prefix() const { return export_prefix_; }

  /**
   * A deploy pins GPUs (`on=`). Pins name GPUs of the whole fleet, so
   * such a spec runs on one shard only.
   */
  bool pinned() const;

  /**
   * The horizon the driver actually runs: `run for` when given,
   * otherwise the last workload / chaos event end plus a 5 s drain.
   */
  TimeUs EffectiveRunFor() const;

  /**
   * Serialize to the experiment text format (canonical: section order
   * experiment / cluster / storage / nic / deploy / workload / chaos /
   * run / export, only non-default keys, densest exact time suffixes).
   * ToText/Parse round-trip byte-identically.
   */
  std::string ToText() const;

  /**
   * Parse the text format (blank lines and `#` comments — whole-line
   * or trailing — are skipped). On failure returns false and leaves a
   * line-numbered message in `*error` (when non-null); `*out` is only
   * written on success.
   */
  static bool Parse(const std::string& text, ExperimentSpec* out,
                    std::string* error);

 private:
  std::string name_;
  ClusterSection cluster_;
  FabricSection fabric_;
  std::vector<DeploySpec> deploys_;
  std::vector<WorkloadSpec> workloads_;
  chaos::ScenarioSpec chaos_;
  TimeUs run_for_ = 0;
  std::string export_prefix_;
};

/**
 * The ClusterConfig a spec's cluster and fabric sections describe: the
 * preset with every set override applied. The one place that knows
 * the fleet size: the loader bounds chaos targets by it, and the
 * driver splits and builds shards from it.
 */
cluster::ClusterConfig BuildClusterConfig(const ClusterSection& c,
                                          const FabricSection& fab);

}  // namespace dilu::experiment

#endif  // DILU_EXPERIMENT_EXPERIMENT_SPEC_H_
