/**
 * @file
 * Logical cluster resource view used by the schedulers.
 *
 * Tracks, per GPU: the sums of <request, limit> SM quotas (Algorithm 1's
 * newReqSum / newLimSum), committed memory, and resident functions (for
 * workload-affinity lookups). Placements are recorded per instance so
 * scale-in can release exactly what scale-out committed.
 *
 * Hot-path guarantees (Fig 17 scale: 4,000 GPUs, 3,200 instances):
 *  - `GpusHosting` reads an incrementally maintained function -> GPU
 *    residency index (updated in Commit/Release), so a workload-affinity
 *    lookup costs O(resident GPUs of the queried functions), not a fleet
 *    scan.
 *  - Active GPUs are additionally bucketed by committed request sum, so
 *    feasibility (req_sum <= cap) prunes whole buckets and best-fit
 *    scans only plausibly-winning candidates.
 *  - The lowest-id idle GPU is answered from a lazy min-heap, so
 *    schedulers open new devices without touching the idle list
 *    (every GPU has the same memory, so idle whole devices are
 *    interchangeable).
 *  - `ActiveGpuCount` is O(1); fragmentation snapshots iterate active
 *    GPUs only.
 */
#ifndef DILU_SCHEDULER_GPU_STATE_H_
#define DILU_SCHEDULER_GPU_STATE_H_

#include <array>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace dilu::scheduler {

/** Memory of every GPU in the fleet (GB; the A100-40GB). */
constexpr double kGpuMemoryGb = 40.0;

/** Resource bookkeeping for one GPU. */
struct GpuInfo {
  GpuId id = kInvalidGpu;
  NodeId node = 0;
  double req_sum = 0.0;   ///< committed sum of request quotas
  double lim_sum = 0.0;   ///< committed sum of limit quotas
  double mem_used = 0.0;  ///< committed memory (GB)
  std::vector<FunctionId> functions;  ///< resident function ids
  GpuHealth health = GpuHealth::kUp;
  /**
   * Effective compute capacity as a fraction of the nominal device:
   * 1.0 while healthy; (0, 1) while degraded (partial SM loss, or the
   * reciprocal of a straggler's latency inflation). Schedulers scale
   * their oversubscription caps by it, so a degraded device keeps
   * accepting placements — just fewer of them.
   */
  SmRate capacity = 1.0;

  bool active() const { return !functions.empty(); }
  double mem_free() const { return kGpuMemoryGb - mem_used; }
  /** Up and degraded devices accept new placements. */
  bool schedulable() const
  {
    return health == GpuHealth::kUp || health == GpuHealth::kDegraded;
  }
};

/** One shard's committed resources. */
struct ShardCommit {
  GpuId gpu = kInvalidGpu;
  SmQuota quota;
  double mem_gb = 0.0;
};

/** Mutable logical view of every GPU in the cluster. */
class ClusterState {
 public:
  /**
   * Active GPUs are partitioned into load buckets by req_sum, covering
   * [0, kLoadBuckets * kLoadBucketWidth) with the last bucket absorbing
   * anything above (oversubscription sweeps push req_sum past 1).
   */
  static constexpr int kLoadBuckets = 16;
  static constexpr double kLoadBucketWidth = 0.125;

  static int LoadBucketFor(double req_sum)
  {
    const int b = static_cast<int>(req_sum / kLoadBucketWidth);
    return b < 0 ? 0 : (b >= kLoadBuckets ? kLoadBuckets - 1 : b);
  }

  /** Register a GPU (dense ids expected, matching gpusim). */
  GpuId AddGpu(NodeId node);

  GpuInfo& gpu(GpuId id);
  const GpuInfo& gpu(GpuId id) const;
  std::size_t gpu_count() const { return gpus_.size(); }
  const std::vector<GpuInfo>& gpus() const { return gpus_; }

  /** Commit an instance's shards (updates sums, residency, activity). */
  void Commit(InstanceId instance, FunctionId function,
              const std::vector<ShardCommit>& shards);

  /** Release everything committed for `instance`. */
  void Release(InstanceId instance);

  /**
   * Change a GPU's health. The placement indexes respect health
   * transitions immediately: leaving the schedulable states (up,
   * degraded) removes the device from the load buckets (active GPUs)
   * and hides it from the min-idle answer (idle GPUs); returning
   * restores it. Entering `kUp` resets capacity to 1.0 (a recovered
   * device is whole again). Committed resources and residency are
   * untouched — failure handling (killing and re-placing displaced
   * instances) is the cluster layer's job. To enter the degraded state
   * use SetDegraded, which also carries the capacity.
   */
  void SetHealth(GpuId id, GpuHealth health);

  /**
   * Mark a schedulable GPU degraded at `capacity` in (0, 1]: it stays
   * in every placement index (the device still accepts work), but
   * schedulers scale its oversubscription caps by the capacity.
   * Re-degrading an already-degraded device just updates the capacity.
   * Requires the GPU to be up or degraded (escalation to down and
   * healing go through SetHealth).
   */
  void SetDegraded(GpuId id, double capacity);

  GpuHealth health(GpuId id) const { return gpu(id).health; }

  /** Effective capacity of a GPU (1.0 unless degraded). */
  double capacity(GpuId id) const { return gpu(id).capacity; }

  /** Number of GPUs currently accepting placements (up or degraded). */
  int SchedulableGpuCount() const { return schedulable_count_; }

  /** Number of GPUs currently in the degraded state. */
  int DegradedGpuCount() const { return degraded_count_; }

  /**
   * Sum of effective compute capacity over schedulable GPUs, in device
   * units: a 16-GPU fleet with one device degraded to 0.6 reports 15.6.
   * This is the supply-side signal degradation feeds to the scaler and
   * the 1 Hz cluster samples.
   */
  double EffectiveCapacity() const { return effective_capacity_; }

  /**
   * Minimum effective capacity over the GPUs hosting `instance`'s
   * shards (lockstep shards run at the slowest device), 1.0 when the
   * instance has no recorded placement. The cluster layer uses it to
   * derate a degraded instance's serving throughput in the scaler
   * signal.
   */
  double InstanceCapacityFactor(InstanceId instance) const;

  /**
   * GPUs currently hosting any of `functions` (workload affinity),
   * appended to `*out` (cleared first). Served from the residency
   * index: O(sum of the queried functions' resident GPU counts), then
   * drained through a sort so the unordered index's hash order never
   * reaches callers — the result is ascending by GPU id, possibly
   * listing a GPU once per queried function hosting it; candidate
   * consumers tolerate duplicates.
   */
  void GpusHosting(const std::vector<FunctionId>& functions,
                   std::vector<GpuId>* out) const;

  /** Convenience wrapper: deduplicated, ascending GPU ids. */
  std::vector<GpuId> GpusHosting(
      const std::vector<FunctionId>& functions) const;

  /**
   * Ids of GPUs with (without) at least one resident function.
   * Maintained incrementally; element order is unspecified (schedulers
   * impose determinism through explicit id tie-breaking).
   */
  const std::vector<GpuId>& active_gpus() const { return active_; }
  const std::vector<GpuId>& idle_gpus() const { return idle_; }

  /** Active GPUs whose req_sum falls into load bucket `b`. */
  const std::vector<GpuId>& active_bucket(int b) const
  {
    return buckets_[static_cast<std::size_t>(b)];
  }

  /**
   * Lowest-id idle *schedulable* GPU, or kInvalidGpu when every device
   * is active or unhealthy. Amortized O(log idle) via a lazy-deletion
   * min-heap (entries for failed or drained devices are reclaimed on
   * pop and re-pushed when they return to health).
   */
  GpuId MinIdleGpu() const;

  /** Number of GPUs with at least one resident function. O(1). */
  int ActiveGpuCount() const { return static_cast<int>(active_.size()); }

  /**
   * Cluster-level fragmentation snapshots (Fig 17): the share of
   * committed-but-unusable capacity on active GPUs.
   * SM fragments   = sum over active GPUs of (1 - req_sum), clamped >= 0.
   * Mem fragments  = sum over active GPUs of free memory / capacity.
   * Both normalized by the active GPU count (0 when none active).
   */
  double SmFragmentation() const;
  double MemoryFragmentation() const;

  /**
   * Test-only: rehash every unordered index (placements, residency and
   * its nested per-GPU maps) to at least `buckets` buckets, perturbing
   * their iteration order the way a different hash seed would. Every
   * public query must be unaffected — the hash-order regression test
   * (tests/hash_order_test.cc) calls this mid-run and byte-compares
   * trace exports to prove no hash order leaks into output.
   */
  void PerturbHashOrderForTests(std::size_t buckets);

 private:
  struct PlacementRecord {
    FunctionId function = kInvalidFunction;
    std::vector<ShardCommit> shards;
  };

  /** Move `id` between the active/idle lists (swap-with-last pop). */
  void SetActive(GpuId id, bool active);
  void BucketInsert(GpuId id);
  void BucketRemove(GpuId id);
  /** Re-bucket `id` after a req_sum change (no-op if unchanged). */
  void BucketUpdate(GpuId id);

  std::vector<GpuInfo> gpus_;
  std::unordered_map<InstanceId, PlacementRecord> placements_;
  /** function -> (gpu -> resident shard count). */
  std::unordered_map<FunctionId, std::unordered_map<GpuId, int>>
      residency_;
  std::vector<GpuId> active_;
  std::vector<GpuId> idle_;
  /** Per GPU: position in active_ / idle_ (-1 when not a member). */
  std::vector<std::int32_t> active_pos_;
  std::vector<std::int32_t> idle_pos_;
  /** Load-bucket membership (active GPUs only; bucket_of_ = -1 idle). */
  std::array<std::vector<GpuId>, kLoadBuckets> buckets_;
  std::vector<std::int32_t> bucket_pos_;
  std::vector<std::int8_t> bucket_of_;
  /**
   * Lazy min-heap of idle candidates: at most one entry per GPU
   * (in_idle_heap_ dedups pushes), stale entries skipped on pop — so
   * the heap is bounded by the fleet size no matter how often GPUs
   * churn between active and idle.
   */
  mutable std::vector<GpuId> idle_heap_;
  mutable std::vector<char> in_idle_heap_;
  int schedulable_count_ = 0;
  int degraded_count_ = 0;
  /** Sum of capacity over schedulable GPUs (see EffectiveCapacity). */
  double effective_capacity_ = 0.0;
};

}  // namespace dilu::scheduler

#endif  // DILU_SCHEDULER_GPU_STATE_H_
