/**
 * @file
 * Discrete-event GPU device model.
 *
 * This is the hardware substitution for the paper's A100s (recorded
 * here; no separate design document exists):
 * GPU time advances in 5 ms token quanta; within each quantum, attached
 * instances declare a compute *demand* (the SM share their currently
 * queued kernel blocks could productively use) and a per-GPU
 * ShareArbiter — the pluggable sharing policy (Dilu RCKM tokens, static
 * MPS, TGS, FaST-GS, exclusive) — grants shares. Oversubscribed grants
 * are squeezed proportionally, which stretches kernel-launch cycles
 * exactly as SM contention does on real hardware; that inflation is the
 * signal Algorithm 2 reacts to.
 */
#ifndef DILU_GPUSIM_GPU_H_
#define DILU_GPUSIM_GPU_H_

#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace dilu::gpusim {

/**
 * The execution-side interface a running function instance exposes to
 * the GPU engine (the simulator analogue of the CUDA stream + the
 * Interception Library's kernel queue).
 *
 * A multi-GPU instance (e.g. pipeline-parallel LLaMA2) attaches to
 * several GPUs with distinct `slot` indices.
 */
class GpuClient {
 public:
  virtual ~GpuClient() = default;

  /** Owning instance id (for arbiter bookkeeping). */
  virtual InstanceId client_id() const = 0;

  /**
   * SM share in [0, 1] the client could productively consume on `slot`
   * during the next quantum: 0 when idle or in a communication phase,
   * up to the model's saturation share while kernels are queued.
   */
  virtual double ComputeDemand(int slot) = 0;

  /** Deliver the granted share for `slot` this quantum. */
  virtual void OnGrant(int slot, double share) = 0;

  /**
   * Called once per quantum (after all slots received grants): advance
   * in-flight work by `quantum` at the granted shares.
   */
  virtual void FinishQuantum(TimeUs quantum) = 0;

  /**
   * Introspection for token-based arbiters (the RCKM): kernel blocks
   * launched during the previous quantum on each of the client's
   * slots (a pipeline's shards launch in lockstep, so every slot
   * launched the same count). FinishQuantum publishes it; reading it
   * is a load, not a call. The simulator equates executed and
   * launched blocks (granted share * capacity).
   */
  double blocks_launched() const { return blocks_launched_; }

  /**
   * Relative kernel-launching-cycle inflation dT = (T_cur - T_min)/T_min
   * (Algorithm 2 line 13). Instances compute it from their KlcMonitor;
   * non-SLO-sensitive clients may return 0.
   */
  virtual double KlcInflation() const;

 protected:
  /** blocks_launched(); 0 for a client that never launches. */
  double blocks_launched_ = 0.0;

 private:
  friend class GpuGroup;
  /**
   * Engine-owned: set while the quantum's FinishQuantum list already
   * holds this client (an O(1) dedupe); false between quanta.
   */
  bool finish_queued_ = false;
};

/** One instance's attachment to one GPU. */
struct Attachment {
  GpuClient* client = nullptr;
  InstanceId id = kInvalidInstance;
  int slot = 0;                ///< client's shard index for this GPU
  TaskType type = TaskType::kInference;
  SmQuota quota;               ///< profiled <request, limit>
  double memory_gb = 0.0;
  int priority = 0;            ///< TGS: >0 means productive/high priority

  // Per-quantum scratch written by the engine/arbiter:
  double demand = 0.0;
  double granted = 0.0;
};

class ShareArbiter;

/**
 * One simulated GPU device: memory capacity plus a set of attachments.
 * Compute capacity is normalized to share 1.0 (= all SMs).
 */
class Gpu {
 public:
  Gpu(GpuId id, double memory_gb);

  GpuId id() const { return id_; }
  double memory_used_gb() const;
  bool occupied() const { return !attachments_.empty(); }

  /**
   * Effective compute capacity in (0, 1]: 1.0 nominal; lower while the
   * device is degraded (partial SM loss, or 1/straggle-factor for a
   * straggler's latency inflation). Arbiters squeeze their grants to
   * this ceiling, so resident instances slow down proportionally —
   * which is exactly the kernel-launch-cycle inflation the KLC monitor
   * (and through it Algorithm 2 and the scaler) observes.
   */
  double compute_capacity() const { return compute_capacity_; }
  void set_compute_capacity(double capacity);

  /** Attach an instance shard; fails (Fatal) on memory overflow. */
  void Attach(const Attachment& att);

  /** Detach every shard of instance `id` from this GPU. */
  void Detach(InstanceId id);

  /** True iff instance `id` has a shard here. */
  bool Has(InstanceId id) const;

  std::vector<Attachment>& attachments() { return attachments_; }
  const std::vector<Attachment>& attachments() const { return attachments_; }

  /** Sum of granted shares last quantum (current compute utilization). */
  double used_share() const { return used_share_; }

  /** Sum of request quotas (what Dilu reserved). */
  double reserved_request_share() const;

  /** Sum of limit quotas. */
  double reserved_limit_share() const;

  /** Record the post-arbitration utilization for this quantum. */
  void RecordQuantum(TimeUs now);

  /**
   * Integral of granted share over time (share-microseconds),
   * convertible to executed kernel blocks:
   * blocks = integral / kTokenPeriodUs * kBlocksPerQuantum.
   */
  double UtilizationIntegral(TimeUs now) const;

 private:
  GpuId id_;
  double memory_capacity_gb_;
  double compute_capacity_ = 1.0;
  std::vector<Attachment> attachments_;
  double used_share_ = 0.0;
  TimeWeighted utilization_;
};

/**
 * Pluggable per-GPU sharing policy: given the quantum's demands, decide
 * each attachment's granted share. Implementations: rckm::DiluArbiter,
 * gpusim::StaticArbiter (MPS / Exclusive), baselines::TgsArbiter,
 * baselines::FastGsArbiter.
 */
class ShareArbiter {
 public:
  virtual ~ShareArbiter() = default;

  /** Resolve grants for one quantum; writes Attachment::granted. */
  virtual void Resolve(Gpu& gpu, TimeUs now) = 0;

  /** Drop per-instance state before `id` leaves `gpu`. */
  virtual void OnDetach(Gpu& gpu, InstanceId id);
};

/**
 * Static spatial partitioning: the MPS analogue. Each instance executes
 * at `min(demand, quota.limit)`; idle co-runner quota is *not*
 * reusable (the core inefficiency Dilu removes). If the sum of grants
 * exceeds device capacity (MPS-l with gamma > 1), grants are squeezed
 * proportionally, modelling SM contention.
 *
 * With a single attachment whose limit is 1.0 this doubles as the
 * Exclusive baseline.
 */
class StaticArbiter : public ShareArbiter {
 public:
  void Resolve(Gpu& gpu, TimeUs now) override;
};

/**
 * Squeeze grants proportionally so their sum fits `capacity`. Pass the
 * device's `Gpu::compute_capacity()` (no default on purpose: every
 * arbiter must honor degradation, and forgetting the argument should
 * not compile).
 */
void SqueezeToCapacity(std::vector<Attachment>& atts, double capacity);

}  // namespace dilu::gpusim

#endif  // DILU_GPUSIM_GPU_H_
