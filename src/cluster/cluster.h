/**
 * @file
 * ClusterRuntime: the assembled serverless DL cluster.
 *
 * Glues every substrate together — the simulated GPU fleet, the sharing
 * arbiters, the scheduler, the gateway, horizontal scaling and metrics —
 * behind one object. The sharing / scheduling / scaling policies are
 * selected by name so every baseline in Section 5 runs on the exact same
 * substrate and differs only in policy logic.
 */
#ifndef DILU_CLUSTER_CLUSTER_H_
#define DILU_CLUSTER_CLUSTER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/gateway.h"
#include "cluster/metrics.h"
#include "cluster/node.h"
#include "core/function_spec.h"
#include "fabric/fabric.h"
#include "gpusim/gpu_group.h"
#include "models/cost_model.h"
#include "profiler/profile_cache.h"
#include "runtime/inference_instance.h"
#include "runtime/training_instance.h"
#include "scaling/global_scaler.h"
#include "scheduler/scheduler.h"
#include "sim/simulation.h"
#include "workload/arrival.h"

namespace dilu::cluster {

/** Memory of every GPU in the fleet (GB; the A100-40GB). */
using scheduler::kGpuMemoryGb;

/** Whole-cluster configuration. */
struct ClusterConfig {
  int nodes = 1;
  int gpus_per_node = 4;

  /** Sharing arbiter: "dilu" | "static" | "tgs" | "fastgs". */
  std::string sharing = "dilu";
  /** Scheduler: "dilu" | "exclusive" | "static". */
  std::string scheduler = "dilu";
  /**
   * Quota interpretation: "dilu" keeps <request, limit> as profiled;
   * "limit" / "request" pin both to one value (MPS-l / MPS-r and the
   * INFless+-l / INFless+-r variants); "full" pins both to 1.0
   * (Exclusive).
   */
  std::string quota_mode = "dilu";

  /** RCKM MaxTokens per token period (the Fig 18(b) knob). */
  double max_tokens = models::kBlocksPerQuantum;
  /** The Dilu scheduler's -WA / -RC ablation switches. */
  bool workload_affinity = true;
  bool resource_complementarity = true;

  /** Use warm (cached) starts for scale-out launches. */
  bool warm_starts = false;

  /**
   * Recovery re-placement policy for instances displaced by one fault:
   * "joint" (default) collects the whole batch and places it
   * best-fit-decreasing (largest resource demand first, over the load
   * buckets), so big replacements grab the scarce post-fault holes
   * before small ones fragment them; "greedy" keeps the per-instance
   * order the fault discovered them in (victim-id order). Both fall
   * back to the 1 s retry queue for the unplaceable remainder.
   */
  std::string recovery = "joint";

  /**
   * Contended storage + network tiers (docs/FABRIC.md). Disabled by
   * default: checkpoint saves, cold-start weight loading and drain
   * migration then keep their legacy constant costs.
   */
  fabric::FabricConfig fabric;

  std::uint64_t seed = 1;
};

/**
 * A named baseline of the paper's evaluation (Section 5): the policies
 * it selects in place of ClusterConfig's defaults, which are Dilu's.
 */
struct ClusterPreset {
  std::string_view name;
  std::string_view sharing;
  std::string_view scheduler;
  std::string_view quota_mode;
  bool warm_starts;  ///< INFless+: layered caches / pre-warming
};

/** Every preset; the spec loader's `preset=` accepts exactly these. */
inline constexpr ClusterPreset kPresets[] = {
    {"dilu", "dilu", "dilu", "dilu", false},
    {"exclusive", "static", "exclusive", "full", false},
    {"mps-l", "static", "static", "limit", false},
    {"mps-r", "static", "static", "request", false},
    {"tgs", "tgs", "static", "limit", false},
    {"fastgs", "fastgs", "static", "limit", false},
    {"infless-l", "static", "static", "limit", true},
    {"infless-r", "static", "static", "request", true},
};

/** The preset called `name`; nullptr when there is none. */
const ClusterPreset* FindPreset(std::string_view name);

/** The default ClusterConfig under preset `name` (Fatal if unknown). */
ClusterConfig PresetConfig(std::string_view name);

/** Runtime record of one deployed function. */
struct DeployedFunction {
  FunctionId id = kInvalidFunction;
  core::FunctionSpec spec;
  const models::ModelProfile* model = nullptr;
  std::vector<InstanceId> live_instances;  ///< inference (incl. cold)
  std::unique_ptr<runtime::TrainingJob> job;
  std::unique_ptr<scaling::HorizontalPolicy> policy;
  TimeUs submitted_at = 0;
  TimeUs job_completed_at = -1;  ///< training JCT end
  /**
   * Training resume baseline: iterations persisted by the aborted
   * job's last checkpoint; the next (re)start begins here instead of
   * zero. 0 until a fault hits (or when no checkpoint policy is set).
   */
  std::int64_t resume_iterations = 0;
  /** (time, deployed instance count) samples from the scaler loop. */
  std::vector<std::pair<TimeUs, int>> instance_count_series;
  /** The last placement attempt failed (Place's warning latch). */
  bool placement_failing = false;
};

/** The assembled serverless DL cluster. */
class ClusterRuntime {
 public:
  explicit ClusterRuntime(ClusterConfig config);
  ~ClusterRuntime();

  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  // --- accessors -------------------------------------------------------
  sim::Simulation& simulation() { return sim_; }
  gpusim::GpuGroup& gpus() { return *gpu_group_; }
  scheduler::ClusterState& state() { return state_; }
  MetricsHub& metrics() { return metrics_; }
  const MetricsHub& metrics() const { return metrics_; }
  Gateway& gateway() { return gateway_; }
  const Gateway& gateway() const { return gateway_; }
  const ClusterConfig& config() const { return config_; }
  TimeUs now() const { return sim_.now(); }
  /** The fabric plane, or nullptr when ClusterConfig::fabric is off. */
  fabric::FabricPlane* fabric() { return fabric_.get(); }
  const fabric::FabricPlane* fabric() const { return fabric_.get(); }

  // --- deployment ------------------------------------------------------

  /**
   * Register a function. Profiles resourcing metadata (HGS for
   * inference, binary search for training) when the spec leaves it
   * empty. Does not launch instances.
   */
  FunctionId Deploy(const core::FunctionSpec& spec);

  /**
   * Launch one inference instance via the configured scheduler.
   * @param cold  pay the cold start (false for pre-provisioned setup)
   * @return instance id, or kInvalidInstance when placement failed.
   */
  InstanceId LaunchInference(FunctionId fn, bool cold = true);

  /** Launch an inference instance on explicit GPUs (GPU-level benches). */
  InstanceId LaunchInferenceOn(FunctionId fn,
                               const std::vector<GpuId>& gpus,
                               bool cold = true);

  /** Terminate the least-loaded instance of `fn`; false if at one. */
  bool ScaleInOne(FunctionId fn);

  /** Place + start all workers of a training function. */
  bool StartTraining(FunctionId fn, bool cold = true);

  /** Start training with explicit per-worker GPUs. */
  bool StartTrainingOn(FunctionId fn, const std::vector<GpuId>& gpus,
                       bool cold = true);

  // --- workload & scaling ---------------------------------------------

  /** Drive `fn` with an arrival process until simulated time `until`. */
  void AttachArrivals(FunctionId fn,
                      std::unique_ptr<workload::ArrivalProcess> process,
                      TimeUs until);

  /**
   * Drive `fn` closed-loop: `clients` concurrent virtual users, each
   * issuing one request, waiting for its completion (or drop — a
   * client whose request dies still continues), then thinking for a
   * gap drawn from `think` before the next. New requests stop once the
   * next issue time passes `until`; outstanding ones finish naturally.
   * Closed-loop requests are tagged (Request::closed_loop), so
   * open-loop traffic on the same function — a chaos surge, a mixed
   * stream — can never spawn phantom clients; still, prefer one
   * driving model per function (the experiment loader enforces that
   * for `workload` lines).
   */
  void AttachClosedLoop(FunctionId fn, int clients,
                        std::unique_ptr<workload::ArrivalProcess> think,
                        TimeUs until);

  /** Enable the per-function horizontal scaler (1 Hz loop). */
  void EnableAutoscaler(FunctionId fn,
                        std::unique_ptr<scaling::HorizontalPolicy> policy);

  /** Advance the simulation. */
  void RunFor(TimeUs duration);

  // --- fault injection & recovery --------------------------------------
  //
  // The chaos engine (src/chaos/) drives these; they are also usable
  // directly. All of them are deterministic: given the same seed and
  // injection times, displacement, re-placement and recovery cold
  // starts replay identically (docs/FAULT_MODEL.md).

  /**
   * Fail one GPU: it stops accepting placements, every instance with a
   * shard on it is killed (queued + in-flight requests re-dispatched to
   * surviving instances or counted as drops), and the displaced batch
   * is re-placed jointly through the scheduler as recovery cold starts
   * (see ClusterConfig::recovery). Training jobs restart from their
   * last checkpoint (iteration zero without a checkpoint policy), with
   * the lost progress accounted in the metrics. Replacements that
   * cannot be placed are retried on an exponential backoff (a 1 s
   * base doubling five times, seeded jitter) until capacity returns;
   * explicit recovery events short-circuit the backoff.
   * @return the number of displaced instances.
   */
  int FailGpu(GpuId gpu);

  /**
   * Return a failed or degraded GPU to full service (triggers a
   * recovery retry). Healing restores capacity 1.0.
   */
  void RecoverGpu(GpuId gpu);

  /**
   * Degrade a GPU to `capacity` in (0, 1) of its nominal compute
   * (partial SM loss). The device stays schedulable: resident
   * instances keep running (squeezed to the surviving capacity, which
   * inflates their kernel-launch cycles and feeds the KLC/scaler
   * signal), and the schedulers scale its oversubscription caps by the
   * capacity. No instance is displaced. A degraded GPU can heal
   * (RecoverGpu) or escalate to down (FailGpu). No-op on draining or
   * down devices.
   */
  void DegradeGpu(GpuId gpu, double capacity);

  /**
   * Make a GPU a straggler: every resident instance's latency inflates
   * by `factor` >= 1. Modeled as DegradeGpu(gpu, 1 / factor) — the
   * grant squeeze stretches kernel-launch cycles exactly as a slow
   * device does — but audited as its own fault kind.
   */
  void StraggleGpu(GpuId gpu, double factor);

  /**
   * Arm (or change) periodic training checkpoints for `fn`: the live
   * job (and every restart) snapshots progress at the first iteration
   * boundary at least `every` after the previous checkpoint, so a
   * fault restarts from the snapshot instead of iteration zero.
   * `save_cost` > 0 pauses the job for that duration at each snapshot
   * (accounted per function as checkpoints / checkpoint_pause).
   * `every` == 0 disarms. Inference functions ignore it.
   */
  void SetCheckpointPolicy(FunctionId fn, TimeUs every,
                           TimeUs save_cost = 0);

  /** Fail every GPU of `node` (whole-server fault). */
  int FailNode(NodeId node);

  /** Return every GPU of `node` to service. */
  void RecoverNode(NodeId node);

  /**
   * Maintenance drain: the node's GPUs stop accepting new placements
   * and resident inference instances are migrated off (replacement
   * launched elsewhere first, then the original is removed gracefully —
   * its queue re-homed, its in-flight batch allowed to finish). An
   * instance whose replacement cannot be placed stays put (best-effort
   * drain). Training workers are not migrated; they run to completion.
   * With the fabric enabled, the KV/session state of each migrated
   * instance travels through the network tier and the original is only
   * removed when the transfer lands — drain duration becomes emergent
   * from fabric contention.
   * @return the number of migrated instances.
   */
  int DrainNode(NodeId node);

  /** Lift a maintenance drain (GPUs accept placements again). */
  void UndrainNode(NodeId node);

  GpuHealth gpu_health(GpuId gpu) const;
  const Node& node(NodeId id) const;

  /**
   * Scale factor applied to cold-start durations (chaos cold-start
   * inflation: registry pressure, image-pull storms). 1.0 = nominal.
   */
  void set_coldstart_scale(double scale);
  double coldstart_scale() const { return coldstart_scale_; }

  /** Displaced instances still waiting for capacity to be re-placed. */
  int pending_recovery_count() const
  {
    return static_cast<int>(pending_recovery_.size());
  }

  // --- inspection ------------------------------------------------------
  DeployedFunction& function(FunctionId fn);
  const DeployedFunction& function(FunctionId fn) const;
  /** Ids of every deployed function, ascending. */
  std::vector<FunctionId> DeployedFunctions() const;
  runtime::Instance* instance(InstanceId id);
  int DeployedInstanceCount(FunctionId fn) const;

  /** Training throughput in natural units (0 for inference). */
  double TrainingThroughputUnits(FunctionId fn) const;

  /** JCT of a finished training function (-1 if unfinished). */
  TimeUs TrainingJct(FunctionId fn) const;

  /** Maximum concurrently occupied GPU count observed so far. */
  int max_active_gpus() const { return max_active_gpus_; }

  /**
   * Requests still owned by the runtime: in-flight ones plus completed
   * ones not yet overtaken by the prune cursor. Bounded by the
   * outstanding window, not the trace length (see PruneCompleted
   * Requests) — week-long simulations stay flat.
   */
  std::size_t pending_request_count() const { return requests_.size(); }

 private:
  /**
   * How a launch starts its instances. The public launchers start warm
   * (`cold` false) or on demand; fault recovery and drains re-place.
   *   kWarm     - pre-provisioned: ready at once, no cold start counted;
   *   kDemand   - pays the cold start (a cached-image start for inference
   *               under ClusterConfig::warm_starts), counts a cold start;
   *   kRecovery - pays the same, counts a recovery cold start, and an
   *               inference launch notifies the function's scaler.
   */
  enum class Start { kWarm, kDemand, kRecovery };
  /** ClusterConfig::quota_mode, resolved by the constructor. */
  enum class QuotaMode { kDilu, kLimit, kRequest, kFull };

  struct InstanceRecord {
    std::unique_ptr<runtime::Instance> instance;
    FunctionId function = kInvalidFunction;
    TimeUs launched_at = 0;
    double gpu_time_rate = 0.0;  ///< reserved GPU share (sum over shards)
    bool released = false;
  };

  /**
   * One arrival stream: open-loop (a recurring source that re-arms
   * itself after each arrival) or closed-loop (`gaps` are think times;
   * a client's completion or drop posts its next request). Callbacks
   * name it by index in streams_.
   */
  struct Stream {
    FunctionId fn = kInvalidFunction;
    std::unique_ptr<workload::ArrivalProcess> gaps;
    TimeUs until = 0;
    bool closed_loop = false;
    sim::SourceId source = 0;  ///< open-loop only
  };

  InstanceId NextInstanceId() { return next_instance_id_++; }
  /**
   * The one launch path: one inference instance over `spec.shards`
   * GPUs, or a training job with its `workers` one-GPU instances. An
   * empty `*gpus` is placed by the scheduler and receives the GPUs
   * used; a given one is used as is. Returns the first instance id, or
   * kInvalidInstance when placement failed.
   */
  InstanceId Launch(FunctionId fn, Start start, std::vector<GpuId>* gpus);
  /**
   * Place `units` instances of `shards` shards, appending the GPUs.
   * Warns once per failure streak: on `f`'s first failed placement,
   * then not again until one of its placements succeeds.
   */
  bool Place(DeployedFunction& f, const SmQuota& quota, double mem_gb,
             int shards, int units, std::vector<GpuId>* gpus);
  /** Create the training job of `f` on `gpus` (callbacks, fabric). */
  void NewJob(DeployedFunction& f, const std::vector<GpuId>& gpus);
  /** Attach `inst`'s shards to gpus[first, first + shards). */
  void AttachShards(runtime::Instance* inst, const DeployedFunction& f,
                    const std::vector<GpuId>& gpus, int first, int shards,
                    const SmQuota& quota, double mem_gb, int priority);
  /**
   * The one retirement path: unroute, release and unlist `id`; its
   * queued requests re-home. No-op when it is already released.
   */
  void Retire(InstanceId id);
  /** `id`'s record, or nullptr when it is unknown or released. */
  InstanceRecord* LiveRecord(InstanceId id);
  /** Instances with a shard on any of `gpus`, ascending, no repeats. */
  std::vector<InstanceId> ResidentInstances(
      const std::vector<GpuId>& gpus) const;
  Node& NodeAt(NodeId id);
  /** Shared body of FailGpu / FailNode: fail a batch of devices. */
  int FailGpus(const std::vector<GpuId>& gpus, const char* kind,
               const std::string& target);
  /**
   * Abrupt-failure teardown of one inference instance (no flush). The
   * surrendered requests are appended to `*orphans`; the caller
   * re-dispatches them after replacements have launched, so they can
   * queue behind a same-instant recovery cold start instead of
   * dropping.
   */
  void KillInstance(InstanceId id,
                    std::vector<workload::Request*>* orphans);
  /** Abort a training job (worker lost); park it in the graveyard. */
  void AbortTraining(DeployedFunction& f);
  /** Heal one GPU to full capacity in both the state and the device. */
  void HealGpu(GpuId gpu);
  /**
   * Shared body of DegradeGpu / StraggleGpu: guard the health, mirror
   * the capacity into the state and the device, audit as `kind`.
   */
  void DegradeToCapacity(GpuId gpu, double capacity, const char* kind,
                         const std::string& detail);
  /** Whole-instance request-quota demand of one recovery launch. */
  double RecoveryDemand(FunctionId fn) const;
  /**
   * Joint bin-packing order ("joint" recovery): sort a displaced batch
   * best-fit-decreasing — highest request demand first, memory and
   * function id as tie-breaks — so each launch's best-fit placement
   * sees the batch largest-first. No-op under "greedy".
   */
  void OrderRecoveryBatch(std::vector<FunctionId>* needs) const;
  /** Launch a replacement for a displaced instance / aborted job. */
  bool LaunchRecovery(FunctionId fn);
  /** Queue a failed recovery launch and arm the retry timer. */
  void DeferRecovery(FunctionId fn);
  /**
   * Drain the deferred-recovery queue. A timer-fired retry that leaves
   * the queue non-empty escalates the backoff (the configured base
   * doubling to base << 5, seeded jitter past the first step) and
   * re-arms at the longer delay;
   * once the backoff saturates, a `recovery_starved` fault record is
   * logged (once per starvation episode). Explicit recovery events
   * (RecoverGpu & co) retry immediately without escalating.
   */
  void RetryPendingRecoveries(bool timer_fired = false);
  /** Current deferred-recovery retry delay (backoff + jitter). */
  TimeUs RecoveryRetryDelay();
  /** Cold-start duration after chaos inflation. */
  TimeUs ScaledColdStart(TimeUs base) const;
  /** Node hosting `gpu` (ids are assigned node-contiguously). */
  NodeId NodeOfGpu(GpuId gpu) const;
  /**
   * Cold-start duration through the fabric: image pull from the
   * registry NIC into `node`, written to node-local storage, on top of
   * the container bring-up base. Warm starts skip the network pull
   * (image cached on the node) and pay only the storage read.
   */
  TimeUs FabricColdStart(const models::ModelProfile& model, NodeId node,
                         bool warm);
  /** Install the fabric-emergent checkpoint/comm providers on a job. */
  void WireJobFabric(DeployedFunction& f, const std::vector<GpuId>& gpus);
  SmQuota QuotaForMode(const SmQuota& profiled) const;
  /** Fill what `spec` leaves unset (IBS, quota, per-instance rps) from
   *  the model's profile. */
  void ProfileSpec(core::FunctionSpec* spec);
  void ReleaseInstance(InstanceId id);
  void PruneCompletedRequests();
  void AutoscaleTick(FunctionId fn);
  void SampleCluster();
  /** Arm (open loop) or post (closed loop) stream `s`'s next request,
   *  unless it falls past `until`. */
  void ScheduleNext(std::size_t s);
  /** Closed loop: one client finished (completion or drop) — think,
   *  then issue its next request. No-op for open-loop functions. */
  void ScheduleClosedLoopIssue(FunctionId fn);
  /**
   * Create a request for `fn` arriving now and dispatch it (a refused
   * request is not retained).
   */
  void IssueRequest(FunctionId fn, bool closed_loop);

  ClusterConfig config_;
  QuotaMode quota_mode_ = QuotaMode::kDilu;
  bool joint_recovery_ = true;
  /** Per-iteration inference overhead (FaST-GS bookkeeping), or 0. */
  TimeUs inference_overhead_ = 0;
  sim::Simulation sim_;
  std::unique_ptr<gpusim::GpuGroup> gpu_group_;
  scheduler::ClusterState state_;
  std::unique_ptr<scheduler::Scheduler> scheduler_;
  Gateway gateway_;
  MetricsHub metrics_;
  std::vector<Node> nodes_;
  std::unique_ptr<fabric::FabricPlane> fabric_;
  /** Per runtime, not per process: each run pays for its own profiling,
   *  as a deployment would (PERFORMANCE.md "Set-up"). */
  profiler::ProfileCache profiles_;

  std::map<FunctionId, DeployedFunction> functions_;
  std::map<InstanceId, InstanceRecord> instances_;
  /** Live request records, oldest first (see PruneCompletedRequests). */
  std::deque<workload::Request> requests_;

  /**
   * Aborted training jobs parked until process end: a pending
   * communication-phase event may still reference the job object, so it
   * must outlive the simulation even after a restart replaced it.
   */
  std::vector<std::unique_ptr<runtime::TrainingJob>> retired_jobs_;
  std::vector<Stream> streams_;

  /** Displaced work awaiting capacity, one entry per needed launch. */
  std::deque<FunctionId> pending_recovery_;
  sim::Simulation::TaskId recovery_task_ = 0;
  bool recovery_task_armed_ = false;
  /** Backoff exponent of the recovery retry timer (0 = 1 s cadence). */
  int recovery_backoff_shift_ = 0;
  /** recovery_starved already logged for this starvation episode. */
  bool recovery_starved_reported_ = false;
  double coldstart_scale_ = 1.0;

  Rng rng_;
  FunctionId next_function_id_ = 0;
  InstanceId next_instance_id_ = 0;
  std::int64_t next_request_id_ = 0;
  int max_active_gpus_ = 0;
};

}  // namespace dilu::cluster

#endif  // DILU_CLUSTER_CLUSTER_H_
