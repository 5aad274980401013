/**
 * @file
 * Metrics hub: every quantity the paper's evaluation reports.
 *
 * Per function: latency percentiles (p50/p95), SLO violation rate (SVR),
 * cold start counts (CSC), completed request counts. Per cluster:
 * GPU-time accounting (for saved-GPU-time, SGT), fragmentation and
 * occupancy time series (Fig 12 / Fig 17 style traces).
 */
#ifndef DILU_CLUSTER_METRICS_H_
#define DILU_CLUSTER_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "common/function_table.h"
#include "common/stats.h"
#include "common/types.h"
#include "fabric/fabric.h"
#include "workload/request.h"

namespace dilu::cluster {

/** Serving metrics for one function. */
struct FunctionMetrics {
  std::string name;
  double slo_ms = 0.0;
  /** Brownout service class (docs/OVERLOAD.md); inference only. */
  ServiceClass service_class = ServiceClass::kStandard;
  Percentiles latency_ms;
  std::int64_t completed = 0;
  std::int64_t violations = 0;
  /** Requests the gateway could not route to any instance. */
  std::int64_t dropped = 0;
  /** Requests that passed the admission gate (enqueued somewhere). */
  std::int64_t admitted = 0;
  /** Requests refused at the admission gate (cap/AIMD/brownout). */
  std::int64_t shed_admission = 0;
  /** Re-dispatched requests shed on retry-budget/deadline exhaustion. */
  std::int64_t shed_retry = 0;
  /** Cold starts paid to serve demand (scale-out, provisioning). */
  int cold_starts = 0;
  /** Cold starts paid to heal the fleet (failure/drain replacements). */
  int recovery_cold_starts = 0;
  /** Training: job restarts forced by faults. */
  int training_restarts = 0;
  /**
   * Training: iterations of progress lost to faults — work done past
   * the last checkpoint when the job aborted (everything since start,
   * with no checkpoint policy).
   */
  std::int64_t lost_iterations = 0;
  /** Training: checkpoints taken (across restarts). */
  int checkpoints = 0;
  /** Training: simulated time spent paused in checkpoint saves. */
  TimeUs checkpoint_pause = 0;
  /**
   * Requests that arrived before this instant are warmup traffic: they
   * are served normally but excluded from the latency / SVR / completed
   * accounting (experiment specs use it to discard ramp-up noise).
   */
  TimeUs warmup_until = 0;

  /** SLO violation rate in percent. */
  double SvrPercent() const;

  /**
   * Served share of offered traffic in percent:
   * 100 * completed / (completed + dropped + sheds); 100 with no
   * traffic. Sheds count against availability exactly like drops — a
   * refused request is an unserved request.
   */
  double AvailabilityPercent() const;
};

/** One periodic cluster snapshot (1 Hz by default). */
struct ClusterSample {
  TimeUs time = 0;
  int active_gpus = 0;
  double sm_fragmentation = 0.0;   ///< avg unreserved SM share on active GPUs
  double mem_fragmentation = 0.0;  ///< avg free memory fraction on active GPUs
  double avg_utilization = 0.0;    ///< mean granted share across active GPUs
  int schedulable_gpus = 0;        ///< devices accepting placements (up/degraded)
  int degraded_gpus = 0;           ///< devices in the degraded state
  /** Sum of effective compute capacity over schedulable devices. */
  double effective_capacity = 0.0;
};

/** One injected fault or recovery action (the chaos audit log). */
struct FaultRecord {
  TimeUs time = 0;
  std::string kind;    ///< e.g. "gpu_fail", "node_drain", "surge"
  std::string detail;  ///< target and displacement summary
};

/** Collects metrics across the whole simulated cluster. */
class MetricsHub {
 public:
  /** Declare a function (idempotent). */
  void RegisterFunction(FunctionId id, const std::string& name,
                        double slo_ms);

  /** Record a completed request against its function's SLO. */
  void RecordRequest(FunctionId id, const workload::Request& req);

  /** Count one demand cold start for `id`. */
  void RecordColdStart(FunctionId id);

  /** Count one recovery cold start (failure/drain replacement). */
  void RecordRecoveryColdStart(FunctionId id);

  /**
   * Count one dropped (unroutable) request for `id` that arrived at
   * `arrival` — excluded, like completions, when it falls inside the
   * warmup window (so availability compares like with like).
   */
  void RecordDrop(FunctionId id, TimeUs arrival);

  /** Declare `id`'s brownout service class (set at deploy). */
  void SetServiceClass(FunctionId id, ServiceClass c);

  /** Count one admitted request (warmup-gated like RecordDrop). */
  void RecordAdmit(FunctionId id, TimeUs arrival);

  /** Count one admission-gate shed (warmup-gated like RecordDrop). */
  void RecordShedAdmission(FunctionId id, TimeUs arrival);

  /** Count one retry-budget/deadline shed (warmup-gated). */
  void RecordShedRetry(FunctionId id, TimeUs arrival);

  /**
   * Count one fault-forced training restart for `id`, losing
   * `lost_iterations` of un-checkpointed progress.
   */
  void RecordTrainingRestart(FunctionId id, std::int64_t lost_iterations);

  /** Count one training checkpoint for `id`, paused for `pause`. */
  void RecordCheckpoint(FunctionId id, TimeUs pause);

  /**
   * Exclude requests arriving before `until` from `id`'s request
   * accounting (warmup window; monotone — never moves backward).
   */
  void SetWarmupUntil(FunctionId id, TimeUs until);

  /** Append one entry to the fault audit log. */
  void RecordFault(TimeUs time, const std::string& kind,
                   const std::string& detail);

  /** Accumulate reserved GPU time (gpu-seconds) for SGT accounting. */
  void AddGpuTime(double gpu_seconds);

  /** Append a cluster snapshot. */
  void AddSample(const ClusterSample& s);

  /** Append a fabric snapshot (1 Hz when the fabric is enabled). */
  void AddFabricSample(const fabric::FabricSample& s);

  /**
   * Metrics for a registered function. Looking up an id that was never
   * registered is a programming error: it panics via DILU_CHECK (rather
   * than UB or an opaque std::map::at throw), so misuse fails loudly at
   * the call site.
   */
  const FunctionMetrics& function(FunctionId id) const;
  FunctionMetrics& function(FunctionId id);
  const std::map<FunctionId, FunctionMetrics>& functions() const {
    return functions_.map();
  }

  double total_gpu_seconds() const { return gpu_seconds_; }
  const std::vector<ClusterSample>& samples() const { return samples_; }
  /** Fabric snapshots; empty when the fabric is disabled. */
  const std::vector<fabric::FabricSample>& fabric_samples() const
  {
    return fabric_samples_;
  }

  /** Aggregate SVR (%) over every function. */
  double OverallSvrPercent() const;

  /** Total demand cold starts over every function. */
  int TotalColdStarts() const;

  /** Total recovery cold starts over every function. */
  int TotalRecoveryColdStarts() const;

  /** Total dropped requests over every function. */
  std::int64_t TotalDropped() const;

  /** Total sheds (admission + retry) over every function. */
  std::int64_t TotalShed() const;

  /**
   * Aggregate availability (%) over functions of service class `c`
   * (100 when no such function saw traffic) — the brownout floor
   * comparison: critical's number must dominate best-effort's.
   */
  double ClassAvailabilityPercent(ServiceClass c) const;

  /** Total training iterations lost to faults over every function. */
  std::int64_t TotalLostIterations() const;

  /** Aggregate availability (%) over every function. */
  double OverallAvailabilityPercent() const;

  const std::vector<FaultRecord>& faults() const { return faults_; }

 private:
  FunctionTable<FunctionMetrics> functions_;
  double gpu_seconds_ = 0.0;
  std::vector<ClusterSample> samples_;
  std::vector<fabric::FabricSample> fabric_samples_;
  std::vector<FaultRecord> faults_;
};

}  // namespace dilu::cluster

#endif  // DILU_CLUSTER_METRICS_H_
