/**
 * @file
 * The fabric layer: contended storage and network tiers.
 *
 * Replaces the hand-tuned constants for checkpoint saves, image pulls,
 * gradient sync and migration with transfers through shared, finite
 * resources, so checkpoint pauses, drain durations and recovery TTR
 * emerge from contention and scale with fleet size (docs/FABRIC.md).
 *
 * Two tiers:
 *  - **storage** — per-device sequential-write bandwidth behind a FIFO
 *    frontier, with a background GC duty cycle that periodically steals
 *    the whole device (the ZNS/F2FS shape: zone-append fast path, GC
 *    windows where user writes stall).
 *  - **network** — a token-bucket NIC per node feeding a per-node
 *    uplink frontier, a single oversubscribed core frontier, and the
 *    destination's downlink frontier (store-and-forward), plus a fixed
 *    per-message posting cost with seeded jitter (the rdma-dm-sim
 *    shape: QP frontiers + PCIe posting).
 *
 * The model is analytical: submitting a transfer advances frontiers and
 * returns its completion timestamp in O(1); callers schedule exactly
 * one completion event through the deterministic event queue. No wall
 * clock, no unseeded randomness — two runs with the same seed are
 * byte-identical.
 */
#ifndef DILU_FABRIC_FABRIC_H_
#define DILU_FABRIC_FABRIC_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace dilu::fabric {

/** GC duty-cycle period of every storage device. */
constexpr TimeUs kStorageGcPeriod = Ms(200);
/** Shared oversubscribed core bandwidth (GB/s). */
constexpr double kCoreGbps = 40.0;
/** Fixed per-message posting cost (plus up to 25% seeded jitter). */
constexpr TimeUs kPostCost = Us(20);

/**
 * Sizing of the two tiers. `enabled == false` (the default) keeps the
 * legacy constant-cost paths everywhere: checkpoint `save_cost`,
 * cold-start weight loading and instant drain migration behave exactly
 * as before this layer existed.
 */
struct FabricConfig {
  bool enabled = false;

  // --- storage tier ---
  /** Sequential-write bandwidth per device (GB/s). */
  double storage_bw_gbps = 2.0;
  /** Fraction of every GC period the device spends collecting. */
  double storage_gc_duty = 0.15;
  /** Device count; checkpoints from node N land on device N % count. */
  int storage_devices = 1;

  // --- network tier ---
  /** Per-node NIC token refill rate (GB/s). */
  double nic_rate_gbps = 10.0;
  /** NIC token-bucket depth (GB). */
  double nic_burst_gb = 0.05;
};

/**
 * Byte-granularity token bucket over simulated time (the NIC rate
 * limiter). `Acquire` refills lazily, spends what it can, and returns
 * the earliest time the full amount is credited.
 */
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_gbps, double burst_gb);

  /** Earliest time `gb` is credited when asked at `now`; spends it. */
  TimeUs Acquire(double gb, TimeUs now);

 private:
  double rate_gbps_ = 0.0;
  double burst_gb_ = 0.0;
  double tokens_gb_ = 0.0;
  TimeUs last_refill_ = 0;
};

/** Outcome of one submitted transfer (all timestamps simulated). */
struct TransferResult {
  TimeUs start = 0;  ///< when service began (after queueing)
  TimeUs done = 0;   ///< completion timestamp
  TimeUs stall = 0;  ///< queue wait beyond the submit time
};

/** One 1 Hz fabric counter sample (exported as `_fabric.csv`). */
struct FabricSample {
  TimeUs at = 0;
  int storage_queue = 0;       ///< storage transfers still in flight
  int network_queue = 0;       ///< network transfers still in flight
  double storage_gbps = 0.0;   ///< achieved storage bandwidth, window avg
  double network_gbps = 0.0;   ///< achieved network bandwidth, window avg
  double stall_s = 0.0;        ///< queue-wait accrued in the window
};

/** Lifetime totals (summarized into the experiment result JSON). */
struct FabricTotals {
  std::int64_t storage_transfers = 0;
  std::int64_t network_transfers = 0;
  double storage_gb = 0.0;
  double network_gb = 0.0;
  TimeUs stall_us = 0;
  int max_queue = 0;  ///< peak in-flight transfers, both tiers
};

/**
 * The fabric plane: all storage devices and network frontiers of one
 * cluster. Purely analytical — it never schedules events itself; the
 * caller resolves `TransferResult::done` through the event queue.
 */
class FabricPlane {
 public:
  /**
   * `nodes` real nodes get NICs 0..nodes-1; one extra NIC at index
   * `nodes` models the image registry (`registry_node()`), so cold
   * start image pulls contend on the registry uplink too.
   */
  FabricPlane(const FabricConfig& config, int nodes, std::uint64_t seed);

  const FabricConfig& config() const { return config_; }
  NodeId registry_node() const { return nodes_; }

  /**
   * Sequential write/read of `gb` on node `node`'s device, submitted
   * at `at`. FIFO behind the device frontier; GC duty windows and any
   * active brownout stretch the service.
   */
  TransferResult SubmitStorage(NodeId node, double gb, TimeUs at);

  /**
   * Message of `gb` from `src` to `dst` NICs, submitted at `at`:
   * posting cost -> source token bucket -> uplink frontier -> core
   * frontier -> downlink frontier. Loopback (src == dst) pays only the
   * posting cost. Failed links defer the start to the outage's end.
   */
  TransferResult SubmitNetwork(NodeId src, NodeId dst, double gb, TimeUs at);

  // --- chaos hooks (docs/FABRIC.md) ---
  /** Node `node`'s up/down links carry nothing until `until`. */
  void FailLink(NodeId node, TimeUs until);
  /** Storage service slows by `factor` >= 1 (1 restores nominal). */
  void SetStorageBrownout(double factor);
  double storage_brownout() const { return brownout_; }
  TimeUs link_down_until(NodeId node) const;

  /** Worst storage-device backlog at `now` (0 when drained). */
  TimeUs StorageBacklogUs(TimeUs now) const;
  /** Backlog of node `node`'s uplink + downlink at `now`. */
  TimeUs NetworkBacklogUs(NodeId node, TimeUs now) const;

  /** Harvest completions up to `now`; emit and reset a window sample. */
  FabricSample Sample(TimeUs now);
  const FabricTotals& totals() const { return totals_; }

  // --- invariant-audit view (tests/invariant_audit.h) ---
  /** Sum of interpolated not-yet-delivered GB across both tiers. */
  double InflightGb(TimeUs now) const;
  /** Sum of capacity x remaining-busy-time over devices and links. */
  double CapacityDelayGb(TimeUs now) const;
  /** Sticky: a transfer beat its bandwidth-limited lower bound. */
  bool lower_bound_violated() const { return lower_bound_violated_; }

 private:
  struct Flight {
    TimeUs start = 0;  ///< final-hop service start
    TimeUs done = 0;
    double gb = 0.0;
  };

  /** Service completion from `start` for `need` us around GC windows. */
  TimeUs GcAdjustedDone(TimeUs start, TimeUs need) const;
  void HarvestCompleted(TimeUs now);
  void Track(std::deque<Flight>* tier, const TransferResult& r, double gb,
             TimeUs at);
  static double RemainingGb(const Flight& f, TimeUs now);

  FabricConfig config_;
  int nodes_ = 0;
  Rng rng_;

  std::vector<TimeUs> device_frontier_;           ///< per storage device
  std::vector<TokenBucket> nic_;                  ///< per node + registry
  std::vector<TimeUs> uplink_frontier_;           ///< per node + registry
  std::vector<TimeUs> downlink_frontier_;         ///< per node + registry
  TimeUs core_frontier_ = 0;
  std::vector<TimeUs> link_down_until_;           ///< per node + registry
  double brownout_ = 1.0;

  std::deque<Flight> storage_flights_;
  std::deque<Flight> network_flights_;
  double window_storage_gb_ = 0.0;
  double window_network_gb_ = 0.0;
  TimeUs window_stall_us_ = 0;
  TimeUs window_started_ = 0;
  FabricTotals totals_;
  bool lower_bound_violated_ = false;
};

}  // namespace dilu::fabric

#endif  // DILU_FABRIC_FABRIC_H_
