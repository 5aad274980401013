#include "baselines/arbiters.h"

#include <algorithm>

namespace dilu::baselines {

void
TgsArbiter::Resolve(gpusim::Gpu& gpu, TimeUs now)
{
  (void)now;
  auto& atts = gpu.attachments();
  bool high_active = false;
  for (const gpusim::Attachment& a : atts) {
    if (a.priority > 0 && a.demand > 0.0) high_active = true;
  }
  double high_total = 0.0;
  for (gpusim::Attachment& a : atts) {
    if (a.priority > 0) {
      // Productive jobs run unthrottled.
      a.granted = a.demand;
      high_total += a.granted;
    }
  }
  const double leftover = std::max(0.0, 1.0 - high_total);
  for (gpusim::Attachment& a : atts) {
    if (a.priority > 0) continue;
    double& opp = opportunistic_share_[a.id];
    if (opp <= 0.0) opp = kTgsOpportunisticFloor;
    if (high_active) {
      // Productive job active: collapse to the probing floor.
      opp = kTgsOpportunisticFloor;
    } else {
      // Trial-and-increase while the productive job is idle.
      opp = std::min({opp * kTgsGrowth, kTgsCeiling, leftover});
    }
    a.granted = std::min(a.demand, opp);
  }
  gpusim::SqueezeToCapacity(atts, gpu.compute_capacity());
}

void
TgsArbiter::OnDetach(gpusim::Gpu& gpu, InstanceId id)
{
  (void)gpu;
  opportunistic_share_.erase(id);
}

void
FastGsArbiter::Resolve(gpusim::Gpu& gpu, TimeUs now)
{
  (void)now;
  auto& atts = gpu.attachments();
  // Spatial phase: static MPS partitions.
  double used = 0.0;
  double unmet = 0.0;
  for (gpusim::Attachment& a : atts) {
    a.granted = std::min(a.demand, a.quota.limit);
    used += a.granted;
    unmet += std::max(0.0, a.demand - a.granted);
  }
  // Temporal phase: redistribute idle partition capacity, discounted by
  // the dequeue/bookkeeping overhead.
  const double idle = std::max(0.0, 1.0 - used);
  if (idle > 1e-9 && unmet > 1e-9) {
    const double budget = idle * kFastGsRedistributionEfficiency;
    for (gpusim::Attachment& a : atts) {
      const double want = std::max(0.0, a.demand - a.granted);
      if (want <= 0.0) continue;
      a.granted += budget * (want / unmet);
    }
  }
  gpusim::SqueezeToCapacity(atts, gpu.compute_capacity());
}

}  // namespace dilu::baselines
