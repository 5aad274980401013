#include "runtime/inference_instance.h"

#include <algorithm>

#include "common/logging.h"
#include "models/cost_model.h"

namespace dilu::runtime {

namespace {

/**
 * SLO-aware batching wait (INFless/BATCH style): a request may wait for
 * co-batching as long as wait + 1.2x the full-batch execution time
 * still fits the SLO. Keeps instances idle between batches at light
 * load, which is what lets collocated tasks reclaim the SMs.
 */
TimeUs
BatchWaitBudget(const models::ModelProfile& model, int ibs)
{
  const TimeUs slo = static_cast<TimeUs>(model.slo_ms * 1000.0);
  const TimeUs exec = models::InferenceIterationFull(model, ibs) * 12 / 10;
  return std::max<TimeUs>(0, slo - exec);
}

}  // namespace

InferenceInstance::InferenceInstance(InstanceId id, FunctionId function,
                                     const models::ModelProfile* model,
                                     int ibs, sim::Simulation* sim,
                                     TimeUs extra_latency_per_iter)
    : Instance(id, function, model, TaskType::kInference, sim),
      ibs_(ibs),
      extra_latency_per_iter_(extra_latency_per_iter),
      wait_budget_(BatchWaitBudget(*model, ibs))
{
  DILU_CHECK(ibs >= 1);
}

void
InferenceInstance::Enqueue(workload::Request* req)
{
  DILU_CHECK(req != nullptr);
  req->dispatched = sim_->now();
  batcher_.Push(req);
}

void
InferenceInstance::TakeQueued(std::vector<workload::Request*>* out)
{
  DILU_CHECK(out != nullptr);
  batcher_.PopBatch(static_cast<int>(batcher_.size()), out);
}

void
InferenceInstance::FailAndDrain(std::vector<workload::Request*>* out)
{
  DILU_CHECK(out != nullptr);
  // In-flight first: those requests were dispatched earliest, so
  // re-dispatch preserves arrival order.
  if (in_flight_) {
    out->insert(out->end(), batch_.begin(), batch_.end());
    batch_.clear();
    in_flight_ = false;
    progress_ = 0.0;
  }
  TakeQueued(out);
  Instance::Terminate();  // no flush: the work was lost, not finished
}

void
InferenceInstance::MaybeStartBatch()
{
  if (in_flight_ || !running() || batcher_.empty()) return;
  if (static_cast<int>(batcher_.size()) < ibs_) {
    const TimeUs deadline = batcher_.OldestArrival() + wait_budget_;
    if (sim_->now() < deadline) return;  // keep collecting the batch
  }
  // Adaptive burst batching: the profiled IBS is the steady-state
  // target, but when the queue piles up (a burst the vertical scaler is
  // absorbing) larger batches convert the extra SM share granted by
  // EMERGENCY tokens into real throughput headroom — the saturation
  // share grows with the batch, so the extra SMs are not wasted.
  int limit = ibs_;
  if (static_cast<int>(batcher_.size()) >= 2 * ibs_) {
    limit = std::min(2 * ibs_, model_->max_batch);
  }
  batcher_.PopBatch(limit, &batch_);
  DILU_CHECK(!batch_.empty());
  for (workload::Request* r : batch_) r->started = sim_->now();
  in_flight_ = true;
  progress_ = 0.0;
  batch_started_ = sim_->now();
  const int batch = static_cast<int>(batch_.size());
  const BatchCost& cost = CostOf(batch);
  batch_sat_ = cost.sat;
  batch_ideal_ = static_cast<double>(cost.ideal);
  // Seed the KLC floor with the model's contention-free iteration time
  // so inflation is measured against the ideal, not the first (possibly
  // already contended) observation.
  klc_.Record(batch, cost.ideal);
}

const InferenceInstance::BatchCost&
InferenceInstance::CostOf(int batch)
{
  const std::size_t b = static_cast<std::size_t>(batch);
  if (b >= batch_costs_.size()) batch_costs_.resize(b + 1);
  BatchCost& cost = batch_costs_[b];
  if (cost.ideal < 0) {
    cost.ideal = models::InferenceIterationFull(*model_, batch);
    cost.sat = models::SaturationShare(*model_, batch);
  }
  return cost;
}

double
InferenceInstance::ComputeDemand(int slot)
{
  if (slot == 0) MaybeStartBatch();
  if (!in_flight_ || !running()) return 0.0;
  // Each pipeline shard hosts 1/shard_count of the model; demand is the
  // batch's saturation share spread across shards.
  return batch_sat_ / static_cast<double>(shard_count_);
}

void
InferenceInstance::OnGrant(int slot, double share)
{
  DILU_CHECK(slot >= 0 && slot < shard_count_);
  min_grant_ = slots_granted_++ == 0 ? share : std::min(min_grant_, share);
}

void
InferenceInstance::FinishQuantum(TimeUs quantum)
{
  blocks_launched_ = 0.0;
  // Pipeline lockstep: the aggregate effective share is bounded by the
  // slowest shard, and a shard granted nothing this quantum holds it
  // at 0.
  const double min_grant =
      slots_granted_ == shard_count_ ? min_grant_ : 0.0;
  slots_granted_ = 0;
  if (!in_flight_) return;
  const double aggregate =
      min_grant * static_cast<double>(shard_count_);
  const double speed =
      models::InferenceSpeed(*model_, batch_sat_, aggregate);
  if (speed <= 0.0) return;
  const double rate = speed / batch_ideal_;  // progress per microsecond
  const double needed = 1.0 - progress_;
  const double dt_to_done = needed / rate;
  // Completes within this quantum: interpolate the exact moment.
  const bool completes = dt_to_done <= static_cast<double>(quantum);
  const double ran = completes ? dt_to_done : static_cast<double>(quantum);

  // Every shard launches the same blocks; the total counts each one.
  const double used_share = std::min(min_grant * shard_count_, batch_sat_);
  blocks_launched_ = used_share / shard_count_ * models::kBlocksPerQuantum
      * (ran / static_cast<double>(kTokenPeriodUs));
  for (int s = 0; s < shard_count_; ++s) {
    stats_.blocks_launched_total += blocks_launched_;
  }
  if (completes) {
    const TimeUs done_at = sim_->now() + static_cast<TimeUs>(dt_to_done)
        + extra_latency_per_iter_;
    CompleteBatch(done_at);
  } else {
    progress_ += rate * static_cast<double>(quantum);
  }
}

void
InferenceInstance::CompleteBatch(TimeUs completion_time)
{
  const TimeUs klc_duration = completion_time - batch_started_;
  klc_.Record(static_cast<int>(batch_.size()), klc_duration);
  for (workload::Request* r : batch_) {
    r->completed = completion_time;
    r->done = true;
    if (sink_) sink_(*r);
  }
  ++stats_.batches_executed;
  stats_.requests_completed += static_cast<std::int64_t>(batch_.size());
  batch_.clear();
  in_flight_ = false;
  progress_ = 0.0;
}

double
InferenceInstance::KlcInflation() const
{
  // Continuous monitoring: project the in-flight batch's KLC from its
  // progress so the RCKM reacts within a couple of token periods
  // instead of waiting for the slow iteration to finish.
  double projected = 0.0;
  if (in_flight_ && progress_ > 0.1) {
    const double elapsed =
        static_cast<double>(sim_->now() - batch_started_);
    if (batch_ideal_ > 0.0) {
      projected = std::max(0.0, elapsed / progress_ / batch_ideal_ - 1.0);
    }
  }
  return std::max(projected, klc_.Inflation());
}

void
InferenceInstance::Terminate()
{
  // Flush any in-flight batch as completed at termination time so
  // requests are not leaked (the serverless restart strategy re-runs
  // them in practice; metrics treat these as normal completions).
  if (in_flight_) CompleteBatch(sim_->now());
  // Same for queued-but-unbatched requests: every dispatched request
  // must eventually read done == true, or downstream owners (metrics,
  // the runtime's request pruning) would wait on it forever.
  std::vector<workload::Request*> rest;
  batcher_.PopBatch(static_cast<int>(batcher_.size()), &rest);
  for (workload::Request* r : rest) {
    r->started = sim_->now();
    r->completed = sim_->now();
    r->done = true;
    if (sink_) sink_(*r);
  }
  Instance::Terminate();
}

}  // namespace dilu::runtime
