/**
 * @file
 * Training workers and lockstep training jobs.
 *
 * A TrainingJob owns `n` TrainingInstance workers executing iterations
 * in lockstep (PyTorch DDP / DeepSpeed pipeline analogue): a compute
 * phase whose duration depends on each worker's granted SM share,
 * followed by a communication / bubble phase during which the GPU idles
 * (Observation-2's fragmentation source). The job-level barrier makes
 * the paper's barrel effect emerge naturally: the iteration ends only
 * when the *slowest* worker finishes — which is what the scheduler's
 * workload-affinity principle (Fig 5) mitigates.
 */
#ifndef DILU_RUNTIME_TRAINING_INSTANCE_H_
#define DILU_RUNTIME_TRAINING_INSTANCE_H_

#include <functional>
#include <memory>
#include <vector>

#include "runtime/instance.h"

namespace dilu::runtime {

class TrainingJob;

/** One training worker (one GPU shard of a job). */
class TrainingInstance : public Instance {
 public:
  TrainingInstance(InstanceId id, FunctionId function,
                   const models::ModelProfile* model,
                   sim::Simulation* sim, TrainingJob* job,
                   int worker_index);

  int worker_index() const { return worker_index_; }

  // GpuClient:
  double ComputeDemand(int slot) override;
  void OnGrant(int slot, double share) override;
  void FinishQuantum(TimeUs quantum) override;

  /** Reset per-iteration progress (called by the job barrier). */
  void StartComputePhase();

 protected:
  /** Report readiness to the job barrier once the cold start ends. */
  void OnReady() override;

 private:
  TrainingJob* job_;
  int worker_index_;
  bool computing_ = false;
  bool compute_done_ = true;
  double progress_ = 0.0;
  double granted_ = 0.0;
};

/**
 * Periodic checkpointing for training jobs. With `every` > 0 the job
 * snapshots its progress at the first iteration boundary at least
 * `every` after the previous checkpoint; a fault then restarts from
 * the last snapshot instead of iteration zero, and only the work since
 * it is lost (accounted by the cluster metrics). `every` == 0 models
 * no checkpointing — a fault loses everything (the pre-checkpoint
 * behaviour). `save_cost` > 0 models the snapshot write itself: the
 * job pauses for that duration at each checkpoint before the next
 * iteration starts (state serialization + storage flush), so frequent
 * checkpoints trade steady-state throughput for less lost work.
 */
struct CheckpointPolicy {
  TimeUs every = 0;
  TimeUs save_cost = 0;
};

/** Aggregate statistics for a training job. */
struct TrainingStats {
  std::int64_t iterations_completed = 0;
  /** Iterations inherited from a checkpoint (0 for a fresh job). */
  std::int64_t resumed_from = 0;
  /** Checkpoints taken by this job object (resets on restart). */
  std::int64_t checkpoints_taken = 0;
  /** Simulated time spent paused in checkpoint saves (this job object). */
  TimeUs checkpoint_pause = 0;
  TimeUs started_at = -1;
  TimeUs finished_at = -1;

  /**
   * Mean samples/s between start and `now` (or completion), counting
   * only iterations this job object executed (not the checkpointed
   * baseline a restart resumed from).
   */
  double Throughput(TimeUs now, int batch, int workers) const;
};

/**
 * Lockstep distributed training job; owns its workers' phase barrier.
 *
 * If `target_iterations` > 0 the job terminates after that many
 * iterations (for JCT experiments); otherwise it runs until the
 * simulation ends.
 */
class TrainingJob {
 public:
  /**
   * @param start_iterations  resume baseline: the job begins with this
   *        many iterations already counted (a restart from a
   *        checkpoint); still finishes at `target_iterations` total.
   */
  TrainingJob(FunctionId function, const models::ModelProfile* model,
              int workers, sim::Simulation* sim,
              std::int64_t target_iterations = 0,
              std::int64_t start_iterations = 0);

  /** Create worker `index` (ownership shared with caller/cluster). */
  std::unique_ptr<TrainingInstance> MakeWorker(InstanceId id, int index);

  /** Workers report readiness; compute starts once all are ready. */
  void WorkerReady(int index);

  /** Workers report compute-phase completion. */
  void WorkerComputeDone(int index, TimeUs at);

  const TrainingStats& stats() const { return stats_; }
  const models::ModelProfile& model() const { return *model_; }
  FunctionId function() const { return function_; }
  bool finished() const { return finished_; }

  /** Job-completion callback (JCT recording). */
  void set_on_finished(std::function<void()> cb) { on_finished_ = std::move(cb); }

  /**
   * Per-checkpoint callback, fired at each snapshot with the pause the
   * save costs (0 under a free-save policy). The cluster layer uses it
   * to account checkpoint counts and save time in the per-function
   * metrics.
   */
  void set_on_checkpoint(std::function<void(TimeUs pause)> cb)
  {
    on_checkpoint_ = std::move(cb);
  }

  /**
   * Arm (or change) the checkpoint policy. Effective from the next
   * iteration boundary; the interval is measured from the last
   * checkpoint (or job creation).
   */
  void set_checkpoint_policy(const CheckpointPolicy& policy)
  {
    checkpoint_ = policy;
  }
  const CheckpointPolicy& checkpoint_policy() const { return checkpoint_; }

  /**
   * Emergent checkpoint-cost provider (the fabric's storage tier):
   * invoked at each snapshot the job actually takes, returning the
   * pause before the next iteration. Only consulted while the policy's
   * explicit save_cost is 0 — a configured constant always wins, which
   * is the documented no-fabric fallback.
   */
  void set_checkpoint_cost_fn(std::function<TimeUs()> fn)
  {
    checkpoint_cost_fn_ = std::move(fn);
  }

  /**
   * Emergent communication-phase provider (the fabric's network tier):
   * invoked at each iteration barrier, returning the gradient-sync
   * duration. Replaces the analytic models::TrainingCommPhase constant
   * when installed.
   */
  void set_comm_phase_fn(std::function<TimeUs()> fn)
  {
    comm_phase_fn_ = std::move(fn);
  }

  /**
   * Progress safe against a fault: the iteration count at the last
   * checkpoint (the resume baseline when no checkpoint fired yet). A
   * restart launched with this as `start_iterations` loses exactly
   * iterations_completed - checkpointed_iterations() of work.
   */
  std::int64_t checkpointed_iterations() const
  {
    return checkpointed_iterations_;
  }

  /**
   * Abort the job (worker lost to a GPU/node failure): terminates every
   * worker, drops the completion callback and freezes iteration
   * accounting. A pending communication-phase event may still fire; it
   * sees finished_ and does nothing. The aborted job object must stay
   * alive until the simulation drains that event — the cluster layer
   * parks it in a graveyard instead of destroying it.
   */
  void Abort();

  /** Mean throughput in the model's natural unit up to `now`. */
  double ThroughputUnits(TimeUs now) const;

 private:
  void BeginIterationIfReady();
  void OnAllComputeDone(TimeUs latest);
  /** Kick off the next lockstep iteration (post-barrier, post-save). */
  void StartNextIteration();

  FunctionId function_;
  const models::ModelProfile* model_;
  int workers_;
  sim::Simulation* sim_;
  std::int64_t target_iterations_;
  std::vector<TrainingInstance*> worker_ptrs_;
  int ready_count_ = 0;
  int compute_done_count_ = 0;
  bool in_compute_ = false;
  bool finished_ = false;
  TrainingStats stats_;
  CheckpointPolicy checkpoint_;
  std::int64_t checkpointed_iterations_ = 0;
  TimeUs last_checkpoint_at_ = 0;
  std::function<void()> on_finished_;
  std::function<void(TimeUs)> on_checkpoint_;
  std::function<TimeUs()> checkpoint_cost_fn_;
  std::function<TimeUs()> comm_phase_fn_;
};

}  // namespace dilu::runtime

#endif  // DILU_RUNTIME_TRAINING_INSTANCE_H_
