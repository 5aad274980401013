/**
 * @file
 * GPU-level sharing baselines (Section 5.1): TGS and FaST-GS.
 *
 * - TGS (NSDI'23): transparent temporal sharing that prioritizes
 *   "productive" (high-priority) jobs. Opportunistic jobs receive a
 *   tiny probing share that grows multiplicatively only while the
 *   productive job is idle and collapses as soon as it becomes active.
 *   This protects the productive job but nearly starves co-runners
 *   under sustained load — the behaviour Figures 7-9 report.
 *
 * - FaST-GS (ICPP'23): spatio-temporal sharing built on static MPS
 *   partitions. Spatially identical to MPS-l; idle partition capacity
 *   is temporally redistributed, but the frequent CUDA-event statistics
 *   collection and prioritized dequeuing add per-iteration overhead
 *   (modeled as a redistribution efficiency < 1 plus a fixed latency
 *   adder on each inference instance).
 */
#ifndef DILU_BASELINES_ARBITERS_H_
#define DILU_BASELINES_ARBITERS_H_

#include <map>

#include "gpusim/gpu.h"

namespace dilu::baselines {

// TGS: opportunistic jobs probe at a floor share after preemption and
// regrow conservatively, x1.01 per 5 ms quantum: TGS raises their
// allocation over seconds, so sub-second idle gaps of the productive
// job yield almost nothing.
constexpr double kTgsOpportunisticFloor = 0.02;
constexpr double kTgsGrowth = 1.01;
constexpr double kTgsCeiling = 1.0;  ///< max opportunistic share

/** Priority-based temporal sharing (TGS). */
class TgsArbiter : public gpusim::ShareArbiter {
 public:
  void Resolve(gpusim::Gpu& gpu, TimeUs now) override;
  void OnDetach(gpusim::Gpu& gpu, InstanceId id) override;

 private:
  std::map<InstanceId, double> opportunistic_share_;
};

// FaST-GS's two costs. The arbiter reuses only this fraction of idle
// partition capacity after the prioritized-dequeue bookkeeping, and the
// cluster adds the per-iteration CUDA-event bookkeeping to each
// inference instance's batch latency.
constexpr double kFastGsRedistributionEfficiency = 0.7;
constexpr TimeUs kFastGsIterationOverhead = Ms(4);

/** Spatio-temporal static-partition sharing (FaST-GS). */
class FastGsArbiter : public gpusim::ShareArbiter {
 public:
  void Resolve(gpusim::Gpu& gpu, TimeUs now) override;
};

}  // namespace dilu::baselines

#endif  // DILU_BASELINES_ARBITERS_H_
