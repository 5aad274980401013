/**
 * @file
 * Resourcing-complementary scheduling (Section 3.3, Algorithm 1).
 *
 * The scheduler maps function instances onto GPUs to minimize the number
 * of occupied devices (Equation 1) under QoS, memory and oversubscription
 * constraints. It follows the paper's three principles:
 *
 * 1. Workload-affinity-first collocation: prefer GPUs already hosting
 *    instances whose load patterns match, mitigating the barrel effect
 *    for lockstep training (Fig 5).
 * 2. Defragmentation through resource complementarity: best-fit scoring
 *    over weighted SM + memory fragmentation for models that fit in one
 *    fragment; memory-based worst-fit for LLMs spanning several GPUs.
 * 3. Oversubscription caps: per-GPU sums of requests <= Omega and of
 *    limits <= gamma.
 *
 * Performance: `Place` iterates candidate GPUs only — the residency
 * index for affinity, then the maintained active list, then the idle
 * list — never the whole fleet per shard, and the per-request parts of
 * the feasibility test and score are hoisted out of the candidate loop.
 * Placing N instances on G GPUs therefore costs O(N * candidates), not
 * O(N * G) full scans.
 */
#ifndef DILU_SCHEDULER_SCHEDULER_H_
#define DILU_SCHEDULER_SCHEDULER_H_

#include <string>
#include <vector>

#include "scheduler/gpu_state.h"

namespace dilu::scheduler {

/** A request to place one instance (possibly spanning several GPUs). */
struct PlacementRequest {
  FunctionId function = kInvalidFunction;
  TaskType type = TaskType::kInference;
  SmQuota quota;            ///< per-shard <request, limit>
  double mem_gb = 0.0;      ///< per-shard memory
  int gpus_needed = 1;      ///< n_j shards on distinct GPUs
  bool large_model = false; ///< LLM: memory worst-fit placement
  /** Functions whose instances exhibit high workload affinity with
   *  this one (usually: the same function, plus co-submitted peers). */
  std::vector<FunctionId> affinity;
};

/** Result of a placement attempt. */
struct Placement {
  bool ok = false;
  std::vector<GpuId> gpus;  ///< one entry per shard
};

/** Abstract scheduling policy (Dilu + the cluster-level baselines). */
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /**
   * Choose GPUs for `req` against `state`. Does NOT commit; the caller
   * commits via ClusterState::Commit once the instance is created.
   */
  virtual Placement Place(const PlacementRequest& req,
                          ClusterState& state) = 0;

  virtual std::string name() const = 0;
};

// Algorithm 1's constants (paper defaults).

/** Max sum of request quotas per GPU (Omega). */
constexpr double kOmega = 1.0;
/** SM-fragmentation weight in the placement score (alpha). */
constexpr double kAlpha = 0.5;
/** Memory-fragmentation weight in the placement score (beta). */
constexpr double kBeta = 0.5;

/**
 * Algorithm 1 knobs (paper defaults). A cluster's scheduler keeps
 * gamma = 1.5; only a standalone DiluScheduler sets it (Fig 18(a)).
 */
struct DiluSchedulerConfig {
  double gamma = 1.5;   ///< max sum of limit quotas per GPU
  bool workload_affinity = true;         ///< -WA ablation switch
  bool resource_complementarity = true;  ///< -RC ablation switch
};

/** The Dilu heuristic GPU scheduler (Algorithm 1). */
class DiluScheduler : public Scheduler {
 public:
  explicit DiluScheduler(DiluSchedulerConfig config = {});

  Placement Place(const PlacementRequest& req, ClusterState& state) override;
  std::string name() const override { return "dilu"; }

  const DiluSchedulerConfig& config() const { return config_; }

 private:
  /**
   * Request-invariant terms of the per-candidate feasibility test and
   * fragmentation score, computed once per Place call and reused across
   * every candidate (SelectOptGPU's inner loop is the hottest code in a
   * large-scale placement pass).
   */
  struct RequestContext {
    double req_cap = 0.0;  ///< feasible iff req_sum <= req_cap (whole GPU)
    double lim_cap = 0.0;  ///< feasible iff lim_sum <= lim_cap (whole GPU)
    double mem = 0.0;      ///< per-shard memory to add
  };

  RequestContext MakeContext(const PlacementRequest& req) const;

  bool Feasible(const GpuInfo& g, const RequestContext& ctx) const;

  /**
   * SelectOptGPU (Algorithm 1 lines 19-29): best feasible GPU among
   * `candidates` by weighted-fragmentation score; kInvalidGpu if none.
   * Ties break toward the lowest GPU id, making the choice independent
   * of candidate ordering. GPUs in `exclude` (already chosen shards)
   * are skipped; duplicate candidates are tolerated.
   */
  GpuId SelectOptGpu(const std::vector<GpuId>& candidates,
                     const RequestContext& ctx, const ClusterState& state,
                     const std::vector<GpuId>& exclude) const;

  /** Memory worst-fit selection for large models (same tie-breaking). */
  GpuId SelectWorstFit(const std::vector<GpuId>& candidates,
                       const RequestContext& ctx,
                       const ClusterState& state,
                       const std::vector<GpuId>& exclude) const;

  /**
   * Same selections over the whole active set, served from the load
   * buckets: buckets whose lower bound exceeds the request cap are
   * infeasible wholesale, and the best-fit scan stops once no remaining
   * bucket can strictly beat the incumbent score. Selects exactly the
   * GPU the corresponding list scan over active_gpus() would.
   */
  GpuId SelectActive(const ClusterState& state, const RequestContext& ctx,
                     const std::vector<GpuId>& exclude,
                     bool worst_fit) const;

  /**
   * Open a new device: lowest-id feasible idle GPU. Idle whole
   * devices are interchangeable, so this is O(log idle) via
   * ClusterState::MinIdleGpu (LowestIdleGpu's scan covers excluded
   * and degraded minima).
   */
  GpuId SelectIdle(const ClusterState& state, const RequestContext& ctx,
                   const std::vector<GpuId>& exclude) const;

  DiluSchedulerConfig config_;
  /** Scratch for residency-index lookups (reused across Place calls). */
  std::vector<GpuId> affinity_scratch_;
};

}  // namespace dilu::scheduler

#endif  // DILU_SCHEDULER_SCHEDULER_H_
