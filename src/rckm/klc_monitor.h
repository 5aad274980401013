/**
 * @file
 * Kernel-Launching-Cycle (KLC) monitor.
 *
 * Section 3.4.1: the RCKM detects SM contention from the inflation of an
 * instance's per-iteration kernel-launching cycle (e.g. RoBERTa-large
 * inference growing from 25 ms to 50 ms). This monitor records iteration
 * durations and answers the relative change dT = (T_cur - T_min) / T_min
 * consumed by Algorithm 2.
 *
 * Engineering note (a deviation from the paper, recorded here):
 * dynamic batching changes the kernel count per iteration, so minima
 * are tracked *per batch-size bucket* — otherwise a batch-8 iteration
 * would look like contention relative to a batch-1 minimum.
 */
#ifndef DILU_RCKM_KLC_MONITOR_H_
#define DILU_RCKM_KLC_MONITOR_H_

#include <vector>

#include "common/types.h"

namespace dilu::rckm {

/** Tracks per-iteration KLC durations and their per-bucket minima. */
class KlcMonitor {
 public:
  /**
   * Record a completed iteration of duration `klc` executed with batch
   * size `bucket` >= 0 (use bucket = 0 for training iterations).
   */
  void Record(int bucket, TimeUs klc);

  /**
   * Relative inflation of the most recent iteration versus the bucket
   * minimum: (T_cur - T_min) / T_min. Returns 0 before any data.
   */
  double Inflation() const
  {
    if (floor_ <= 0) return 0.0;
    return static_cast<double>(current_ - floor_)
        / static_cast<double>(floor_);
  }

  /** Most recent iteration duration (0 before any data). */
  TimeUs current() const { return current_; }

  /** Minimum recorded duration for the current bucket (0 before data). */
  TimeUs minimum() const { return floor_; }

  /** Forget history (e.g. after migration or a long idle gap). */
  void Reset();

 private:
  /** Per-bucket minima indexed by bucket, 0 = unseen (Record ignores
   *  non-positive durations); touched only by Record and Reset. */
  std::vector<TimeUs> min_by_bucket_;
  TimeUs current_ = 0;
  /** The current bucket's minimum, cached so the per-quantum readers
   *  (Inflation, minimum) never index the table. */
  TimeUs floor_ = 0;
};

}  // namespace dilu::rckm

#endif  // DILU_RCKM_KLC_MONITOR_H_
