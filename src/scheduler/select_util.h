/**
 * @file
 * Internal selection helpers shared by the Dilu and baseline
 * schedulers (not part of the public scheduler API).
 */
#ifndef DILU_SCHEDULER_SELECT_UTIL_H_
#define DILU_SCHEDULER_SELECT_UTIL_H_

#include <algorithm>
#include <vector>

#include "scheduler/gpu_state.h"

namespace dilu::scheduler::internal {

/** True when `id` was already chosen for an earlier shard. */
inline bool Excluded(GpuId id, const std::vector<GpuId>& exclude)
{
  return std::find(exclude.begin(), exclude.end(), id) != exclude.end();
}

/**
 * Lowest-id idle GPU passing `feasible`, skipping `exclude`. Every GPU
 * has the same memory, so feasibility is identical across idle whole
 * devices and the O(log) min-idle index answers; the idle list is
 * scanned only when the minimum is excluded or degraded.
 */
template <typename Feasible>
GpuId LowestIdleGpu(const ClusterState& state, const Feasible& feasible,
                    const std::vector<GpuId>& exclude)
{
  const GpuId min_idle = state.MinIdleGpu();
  if (min_idle == kInvalidGpu) return kInvalidGpu;
  if (!feasible(state.gpus()[static_cast<std::size_t>(min_idle)])) {
    // With whole devices only, idle GPUs are interchangeable and an
    // infeasible minimum means all are infeasible. A degraded idle
    // device breaks that symmetry (its caps are tighter), so fall
    // through to the scan instead of giving up.
    if (state.DegradedGpuCount() == 0) return kInvalidGpu;
  } else if (!Excluded(min_idle, exclude)) {
    return min_idle;
  }
  // A previous shard took the minimum (or the minimum is degraded):
  // scan for the lowest-id feasible idle device.
  GpuId best = kInvalidGpu;
  for (GpuId id : state.idle_gpus()) {
    if (Excluded(id, exclude)) continue;
    if (!feasible(state.gpus()[static_cast<std::size_t>(id)])) continue;
    if (best == kInvalidGpu || id < best) best = id;
  }
  return best;
}

}  // namespace dilu::scheduler::internal

#endif  // DILU_SCHEDULER_SELECT_UTIL_H_
