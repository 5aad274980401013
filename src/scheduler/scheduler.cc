#include "scheduler/scheduler.h"

#include <limits>

#include "common/logging.h"
#include "scheduler/select_util.h"

namespace dilu::scheduler {

using internal::Excluded;
using internal::LowestIdleGpu;

namespace {

/**
 * Incremental best-fit pick: one Consider body shared by the list scan
 * (SelectOptGpu) and the bucket walk (SelectActive), so the two paths
 * cannot drift apart in scoring or tie-breaking. Higher "fullness
 * contribution" kAlpha*req_sum + kBeta*mem_ratio wins (equivalent to
 * the lowest Algorithm 1 line 25 score); exact ties go to the lowest
 * id.
 */
struct BestFitPick {
  double best_contrib = -std::numeric_limits<double>::infinity();
  GpuId best = kInvalidGpu;

  void Consider(GpuId id, const GpuInfo& g, double mem)
  {
    const double contrib = kAlpha * g.req_sum
        + kBeta * ((g.mem_used + mem) / kGpuMemoryGb);
    if (contrib > best_contrib
        || (contrib == best_contrib && best != kInvalidGpu && id < best)) {
      best_contrib = contrib;
      best = id;
    }
  }
};

/**
 * Incremental memory worst-fit pick (Principle 2, large-model branch):
 * the most free memory wins, ties to the lowest id.
 */
struct WorstFitPick {
  double best_free = -1.0;
  GpuId best = kInvalidGpu;

  void Consider(GpuId id, const GpuInfo& g)
  {
    const double free = g.mem_free();
    if (free > best_free
        || (free == best_free && best != kInvalidGpu && id < best)) {
      best_free = free;
      best = id;
    }
  }
};

}  // namespace

DiluScheduler::DiluScheduler(DiluSchedulerConfig config)
    : config_(config)
{
  DILU_CHECK(config_.gamma >= kOmega);
}

DiluScheduler::RequestContext
DiluScheduler::MakeContext(const PlacementRequest& req) const
{
  RequestContext ctx;
  // The epsilon keeps exact-boundary placements (req_sum hitting omega)
  // feasible despite floating-point noise, as in the unhoisted form.
  ctx.req_cap = kOmega + 1e-9 - req.quota.request;
  ctx.lim_cap = config_.gamma + 1e-9 - req.quota.limit;
  ctx.mem = req.mem_gb;
  // Algorithm 1 line 25 minimizes the residual-fragmentation score
  // alpha*(1 - new_req) + beta*(1 - new_mem_ratio); its request-only
  // terms are constant per call, so selection equivalently maximizes
  // the per-candidate "fullness contribution"
  // alpha*req_sum + beta*mem_ratio (two multiply-adds per GPU).
  return ctx;
}

bool
DiluScheduler::Feasible(const GpuInfo& g, const RequestContext& ctx) const
{
  // Unhealthy devices are already absent from the load buckets and the
  // min-idle answer; this check additionally covers candidates arriving
  // through the residency (affinity) index, which still lists draining
  // or failed GPUs hosting not-yet-evacuated instances.
  if (!g.schedulable()
      || g.mem_used + ctx.mem > kGpuMemoryGb + 1e-9) {
    return false;
  }
  if (g.capacity >= 1.0) {  // whole device: the common, pre-hoisted path
    return g.req_sum <= ctx.req_cap && g.lim_sum <= ctx.lim_cap;
  }
  // Degraded device: oversubscription budgets scale with the surviving
  // capacity. The bucket prune in SelectActive uses the whole-device
  // cap, which is strictly looser, so it can never wrongly skip a
  // bucket containing a feasible degraded GPU.
  const double lost = 1.0 - g.capacity;
  return g.req_sum <= ctx.req_cap - kOmega * lost
      && g.lim_sum <= ctx.lim_cap - config_.gamma * lost;
}

GpuId
DiluScheduler::SelectOptGpu(const std::vector<GpuId>& candidates,
                            const RequestContext& ctx,
                            const ClusterState& state,
                            const std::vector<GpuId>& exclude) const
{
  const std::vector<GpuInfo>& gpus = state.gpus();
  BestFitPick pick;
  for (GpuId id : candidates) {
    if (Excluded(id, exclude)) continue;
    const GpuInfo& g = gpus[static_cast<std::size_t>(id)];
    if (!Feasible(g, ctx)) continue;
    pick.Consider(id, g, ctx.mem);
  }
  return pick.best;
}

GpuId
DiluScheduler::SelectWorstFit(const std::vector<GpuId>& candidates,
                              const RequestContext& ctx,
                              const ClusterState& state,
                              const std::vector<GpuId>& exclude) const
{
  const std::vector<GpuInfo>& gpus = state.gpus();
  WorstFitPick pick;
  for (GpuId id : candidates) {
    if (Excluded(id, exclude)) continue;
    const GpuInfo& g = gpus[static_cast<std::size_t>(id)];
    if (!Feasible(g, ctx)) continue;
    pick.Consider(id, g);
  }
  return pick.best;
}

GpuId
DiluScheduler::SelectActive(const ClusterState& state,
                            const RequestContext& ctx,
                            const std::vector<GpuId>& exclude,
                            bool worst_fit) const
{
  const std::vector<GpuInfo>& gpus = state.gpus();
  BestFitPick best_fit;
  WorstFitPick worst;
  for (int b = ClusterState::kLoadBuckets - 1; b >= 0; --b) {
    const double lower = b * ClusterState::kLoadBucketWidth;
    // Every GPU in this bucket has req_sum >= lower: the whole bucket
    // is infeasible for this request.
    if (lower > ctx.req_cap) continue;
    if (!worst_fit && best_fit.best != kInvalidGpu) {
      // Feasible members below have req_sum <= min(bucket upper,
      // req_cap) and mem_ratio <= ~1, so their contribution is bounded;
      // once the incumbent meets the bound, nothing below can strictly
      // beat it (ties would lose to the incumbent only on id, which the
      // full scan also resolves by contribution first).
      const double upper =
          std::min(lower + ClusterState::kLoadBucketWidth, ctx.req_cap);
      if (kAlpha * upper + kBeta < best_fit.best_contrib) break;
    }
    for (GpuId id : state.active_bucket(b)) {
      if (Excluded(id, exclude)) continue;
      const GpuInfo& g = gpus[static_cast<std::size_t>(id)];
      if (!Feasible(g, ctx)) continue;
      if (worst_fit) {
        worst.Consider(id, g);
      } else {
        best_fit.Consider(id, g, ctx.mem);
      }
    }
  }
  return worst_fit ? worst.best : best_fit.best;
}

GpuId
DiluScheduler::SelectIdle(const ClusterState& state,
                          const RequestContext& ctx,
                          const std::vector<GpuId>& exclude) const
{
  // All idle GPUs score identically (zero committed load, equal
  // memory), so the best-fit winner is simply the lowest id.
  return LowestIdleGpu(
      state, [&](const GpuInfo& g) { return Feasible(g, ctx); }, exclude);
}

Placement
DiluScheduler::Place(const PlacementRequest& req, ClusterState& state)
{
  Placement result;
  const RequestContext ctx = MakeContext(req);
  const bool worst_fit =
      config_.resource_complementarity && req.large_model;

  for (int shard = 0; shard < req.gpus_needed; ++shard) {
    GpuId chosen = kInvalidGpu;

    if (config_.workload_affinity && !req.affinity.empty()) {
      // Line 11-12: prefer GPUs hosting workload-affine instances
      // (candidates come from the residency index, not a fleet scan).
      state.GpusHosting(req.affinity, &affinity_scratch_);
      chosen = worst_fit
          ? SelectWorstFit(affinity_scratch_, ctx, state, result.gpus)
          : SelectOptGpu(affinity_scratch_, ctx, state, result.gpus);
    }
    if (chosen == kInvalidGpu && config_.resource_complementarity) {
      // Line 13-14: any active GPU (bucketed by load: feasibility
      // prunes whole buckets, best-fit stops early).
      chosen = SelectActive(state, ctx, result.gpus, worst_fit);
    }
    if (chosen == kInvalidGpu) {
      // Line 15-16: start a new GPU instance (take an idle device).
      chosen = SelectIdle(state, ctx, result.gpus);
    }
    if (chosen == kInvalidGpu && !config_.resource_complementarity) {
      // -RC ablation still needs a fallback to shared active GPUs.
      chosen = SelectActive(state, ctx, result.gpus, /*worst_fit=*/false);
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
