#include "scheduler/baseline_schedulers.h"

#include <limits>

#include "scheduler/select_util.h"

namespace dilu::scheduler {

using internal::Excluded;
using internal::LowestIdleGpu;

Placement
ExclusiveScheduler::Place(const PlacementRequest& req, ClusterState& state)
{
  // Exclusive only ever takes whole idle devices.
  Placement result;
  for (int shard = 0; shard < req.gpus_needed; ++shard) {
    const GpuId chosen = LowestIdleGpu(
        state,
        [&](const GpuInfo& g) {
          // Exclusive hands out whole devices; a degraded GPU no longer
          // has a whole device to give, so it is skipped until healed.
          return g.schedulable() && g.capacity >= 1.0
              && req.mem_gb <= kGpuMemoryGb;
        },
        result.gpus);
    if (chosen == kInvalidGpu) {
      result.ok = false;
      result.gpus.clear();
      return result;
    }
    result.gpus.push_back(chosen);
  }
  result.ok = true;
  return result;
}

StaticQuotaScheduler::StaticQuotaScheduler(std::string label,
                                           double capacity)
    : label_(std::move(label)), capacity_(capacity)
{
}

Placement
StaticQuotaScheduler::Place(const PlacementRequest& req,
                            ClusterState& state)
{
  // The static quota is carried in quota.request (the cluster layer
  // pins request == limit for baseline modes). Feasible active GPUs
  // always beat idle ones under the original score (their score gap is
  // at least the 0.5 idle penalty), and best fit by remaining quota is
  // just "highest committed quota": walk the load buckets from fullest
  // to emptiest and stop at the first bucket yielding a feasible GPU —
  // every lower bucket holds strictly smaller req_sums.
  Placement result;
  for (int shard = 0; shard < req.gpus_needed; ++shard) {
    const auto feasible = [&](const GpuInfo& g) {
      // The static-quota budget scales with the device's surviving
      // capacity (g.capacity < 1 on degraded GPUs).
      return g.schedulable()
          && g.req_sum + req.quota.request <= capacity_ * g.capacity + 1e-9
          && g.mem_used + req.mem_gb <= kGpuMemoryGb + 1e-9;
    };

    GpuId chosen = kInvalidGpu;
    double best_req = -1.0;
    for (int b = ClusterState::kLoadBuckets - 1; b >= 0; --b) {
      if (b * ClusterState::kLoadBucketWidth
          > capacity_ + 1e-9 - req.quota.request) {
        continue;  // bucket lower bound already over capacity
      }
      for (GpuId id : state.active_bucket(b)) {
        if (Excluded(id, result.gpus)) continue;
        const GpuInfo& g = state.gpus()[static_cast<std::size_t>(id)];
        if (!feasible(g)) continue;
        if (g.req_sum > best_req
            || (g.req_sum == best_req && chosen != kInvalidGpu
                && id < chosen)) {
          best_req = g.req_sum;
          chosen = id;
        }
      }
      if (chosen != kInvalidGpu) break;
    }
    if (chosen == kInvalidGpu) {
      chosen = LowestIdleGpu(state, feasible, result.gpus);
    }
    if (chosen == kInvalidGpu) {
      result.ok = false;
      result.gpus.clear();
      return result;
    }
    result.gpus.push_back(chosen);
  }
  result.ok = true;
  return result;
}

}  // namespace dilu::scheduler
