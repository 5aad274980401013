#include "runtime/training_instance.h"

#include <algorithm>

#include "common/logging.h"
#include "models/cost_model.h"

namespace dilu::runtime {

double
TrainingStats::Throughput(TimeUs now, int batch, int workers) const
{
  if (started_at < 0) return 0.0;
  const TimeUs end = finished_at >= 0 ? finished_at : now;
  if (end <= started_at) return 0.0;
  return static_cast<double>(iterations_completed - resumed_from) * batch
      * workers / ToSec(end - started_at);
}

TrainingInstance::TrainingInstance(InstanceId id, FunctionId function,
                                   const models::ModelProfile* model,
                                   sim::Simulation* sim, TrainingJob* job,
                                   int worker_index)
    : Instance(id, function, model, TaskType::kTraining, sim),
      job_(job),
      worker_index_(worker_index)
{
  DILU_CHECK(job != nullptr);
}

void
TrainingInstance::OnReady()
{
  job_->WorkerReady(worker_index_);
}

void
TrainingInstance::StartComputePhase()
{
  computing_ = true;
  compute_done_ = false;
  progress_ = 0.0;
}

double
TrainingInstance::ComputeDemand(int slot)
{
  (void)slot;
  if (!running() || !computing_ || compute_done_) return 0.0;
  return model_->train_sat;
}

void
TrainingInstance::OnGrant(int slot, double share)
{
  (void)slot;
  granted_ = share;
}

void
TrainingInstance::FinishQuantum(TimeUs quantum)
{
  blocks_launched_ = 0.0;
  if (!running() || !computing_ || compute_done_) {
    granted_ = 0.0;
    return;
  }
  const double speed = models::TrainingSpeed(*model_, granted_);
  if (speed <= 0.0) {
    granted_ = 0.0;
    return;
  }
  const double t_full = model_->train_iter_ms * 1000.0;
  const double rate = speed / t_full;
  const double needed = 1.0 - progress_;
  const double dt_to_done = needed / rate;
  const double used = std::min(granted_, model_->train_sat);
  if (dt_to_done <= static_cast<double>(quantum)) {
    blocks_launched_ = used * models::kBlocksPerQuantum
        * (dt_to_done / static_cast<double>(kTokenPeriodUs));
    compute_done_ = true;
    computing_ = false;
    job_->WorkerComputeDone(
        worker_index_, sim_->now() + static_cast<TimeUs>(dt_to_done));
  } else {
    progress_ += rate * static_cast<double>(quantum);
    blocks_launched_ = used * models::kBlocksPerQuantum
        * (static_cast<double>(quantum)
           / static_cast<double>(kTokenPeriodUs));
  }
  granted_ = 0.0;
}

TrainingJob::TrainingJob(FunctionId function,
                         const models::ModelProfile* model, int workers,
                         sim::Simulation* sim,
                         std::int64_t target_iterations,
                         std::int64_t start_iterations)
    : function_(function),
      model_(model),
      workers_(workers),
      sim_(sim),
      target_iterations_(target_iterations)
{
  DILU_CHECK(model != nullptr);
  DILU_CHECK(workers >= 1);
  DILU_CHECK(start_iterations >= 0);
  stats_.iterations_completed = start_iterations;
  stats_.resumed_from = start_iterations;
  // The resume baseline is itself checkpointed state: a second fault
  // before the first new checkpoint restarts from here again.
  checkpointed_iterations_ = start_iterations;
  last_checkpoint_at_ = sim->now();
  worker_ptrs_.assign(static_cast<std::size_t>(workers), nullptr);
}

std::unique_ptr<TrainingInstance>
TrainingJob::MakeWorker(InstanceId id, int index)
{
  DILU_CHECK(index >= 0 && index < workers_);
  auto w = std::make_unique<TrainingInstance>(id, function_, model_, sim_,
                                              this, index);
  worker_ptrs_[static_cast<std::size_t>(index)] = w.get();
  return w;
}

void
TrainingJob::WorkerReady(int index)
{
  (void)index;
  ++ready_count_;
  BeginIterationIfReady();
}

void
TrainingJob::BeginIterationIfReady()
{
  if (ready_count_ < workers_ || in_compute_ || finished_) return;
  if (stats_.started_at < 0) stats_.started_at = sim_->now();
  in_compute_ = true;
  compute_done_count_ = 0;
  for (TrainingInstance* w : worker_ptrs_) {
    DILU_CHECK(w != nullptr);
    w->StartComputePhase();
  }
}

void
TrainingJob::WorkerComputeDone(int index, TimeUs at)
{
  (void)index;
  ++compute_done_count_;
  if (compute_done_count_ == workers_) OnAllComputeDone(at);
}

void
TrainingJob::OnAllComputeDone(TimeUs latest)
{
  in_compute_ = false;
  // Gradient synchronization / pipeline-flush phase: GPUs idle. An
  // installed provider (the fabric's ring all-reduce) replaces the
  // analytic constant.
  const TimeUs comm = comm_phase_fn_ ? comm_phase_fn_()
                                     : models::TrainingCommPhase(*model_);
  const TimeUs comm_end = std::max(latest, sim_->now()) + comm;
  sim_->queue().ScheduleAt(comm_end, [this] {
    if (finished_) return;  // aborted mid-communication
    ++stats_.iterations_completed;
    // Checkpoint at iteration boundaries: the first boundary at least
    // `every` after the previous snapshot persists the progress. Tied
    // to simulated time (not the wall clock), so replays are exact.
    TimeUs save_pause = 0;
    bool checkpointed = false;
    const bool finishing = target_iterations_ > 0
        && stats_.iterations_completed >= target_iterations_;
    if (checkpoint_.every > 0
        && sim_->now() - last_checkpoint_at_ >= checkpoint_.every) {
      checkpointed_iterations_ = stats_.iterations_completed;
      last_checkpoint_at_ = sim_->now();
      ++stats_.checkpoints_taken;
      checkpointed = true;
      // A checkpoint coinciding with completion pays no pause: the job
      // ends here, so only continuing jobs stall for the save. An
      // explicit save_cost pins the constant; otherwise the installed
      // provider (fabric storage write) sets the emergent pause.
      if (!finishing) {
        save_pause = (checkpoint_.save_cost > 0 || !checkpoint_cost_fn_)
            ? checkpoint_.save_cost
            : checkpoint_cost_fn_();
      }
      stats_.checkpoint_pause += save_pause;
      if (on_checkpoint_) on_checkpoint_(save_pause);
    }
    if (finishing) {
      finished_ = true;
      stats_.finished_at = sim_->now();
      for (TrainingInstance* w : worker_ptrs_) {
        if (w != nullptr) w->Terminate();
      }
      if (on_finished_) on_finished_();
      return;
    }
    if (checkpointed && save_pause > 0) {
      // The snapshot is not free: the job stalls for the save before
      // the next iteration can begin (a fault during the stall still
      // restarts from this checkpoint — the snapshot is durable the
      // moment it is counted).
      sim_->queue().ScheduleAt(sim_->now() + save_pause, [this] {
        if (finished_) return;  // aborted
        StartNextIteration();
      });
      return;
    }
    StartNextIteration();
  });
}

void
TrainingJob::StartNextIteration()
{
  in_compute_ = true;
  compute_done_count_ = 0;
  for (TrainingInstance* w : worker_ptrs_) w->StartComputePhase();
}

void
TrainingJob::Abort()
{
  if (finished_) return;
  finished_ = true;
  in_compute_ = false;
  on_finished_ = nullptr;
  for (TrainingInstance* w : worker_ptrs_) {
    if (w != nullptr) w->Terminate();
  }
}

double
TrainingJob::ThroughputUnits(TimeUs now) const
{
  return stats_.Throughput(now, model_->train_batch, workers_)
      * model_->samples_per_unit;
}

}  // namespace dilu::runtime
