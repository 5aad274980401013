/**
 * @file
 * Inference function instance: batching, execution, KLC reporting.
 *
 * Each quantum the instance demands up to its model's saturation share
 * while a batch is in flight. The arbiter (Dilu tokens / static MPS /
 * TGS / FaST-GS) decides the granted share; the batch's progress
 * advances accordingly, so SLO attainment is an emergent property of
 * the sharing policy — the quantity Figures 7, 8 and 10 compare.
 */
#ifndef DILU_RUNTIME_INFERENCE_INSTANCE_H_
#define DILU_RUNTIME_INFERENCE_INSTANCE_H_

#include <functional>
#include <vector>

#include "rckm/klc_monitor.h"
#include "runtime/batcher.h"
#include "runtime/instance.h"

namespace dilu::runtime {

/** Callback fired when a request finishes (for metrics). */
using RequestSink = std::function<void(const workload::Request&)>;

/** Serving statistics an instance accumulates locally. */
struct InferenceStats {
  std::int64_t requests_completed = 0;
  std::int64_t batches_executed = 0;
  double blocks_launched_total = 0.0;
};

/** One inference serving instance. */
class InferenceInstance : public Instance {
 public:
  /**
   * @param ibs  profiled inference batch size (upper bound for batching)
   * @param extra_latency_per_iter  fixed per-iteration overhead added by
   *        the sharing runtime (used to model FaST-GS's CUDA-event
   *        bookkeeping; 0 for everything else)
   */
  InferenceInstance(InstanceId id, FunctionId function,
                    const models::ModelProfile* model, int ibs,
                    sim::Simulation* sim,
                    TimeUs extra_latency_per_iter = 0);

  /** Route a request into this instance's batching queue. */
  void Enqueue(workload::Request* req);

  /**
   * Surrender every queued (not yet batched) request without completing
   * it, appending to `*out`. Used by the gateway to re-home work when an
   * instance is removed gracefully; the in-flight batch (if any) keeps
   * executing.
   */
  void TakeQueued(std::vector<workload::Request*>* out);

  /**
   * Abrupt failure (GPU/node death): surrender the in-flight batch and
   * every queued request — none are completed, their progress is lost —
   * and enter the terminated state. The caller re-dispatches or drops
   * the surrendered requests; contrast with Terminate(), which models a
   * graceful shutdown that flushes work as completed.
   */
  void FailAndDrain(std::vector<workload::Request*>* out);

  /** Register the metrics sink invoked on each completion. */
  void set_request_sink(RequestSink sink) { sink_ = std::move(sink); }

  int ibs() const { return ibs_; }
  std::size_t queue_depth() const { return batcher_.size(); }
  bool batch_in_flight() const { return in_flight_; }
  /** Requests in the in-flight batch (0 when idle); audit input. */
  std::size_t batch_in_flight_size() const { return batch_.size(); }
  const InferenceStats& stats() const { return stats_; }
  const rckm::KlcMonitor& klc() const { return klc_; }

  // GpuClient:
  double ComputeDemand(int slot) override;
  void OnGrant(int slot, double share) override;
  void FinishQuantum(TimeUs quantum) override;
  double KlcInflation() const override;

  void Terminate() override;

 private:
  /** The cost-model constants of a batch of one size. */
  struct BatchCost {
    TimeUs ideal = -1;  ///< InferenceIterationFull; -1 = not computed
    SmRate sat = 0.0;   ///< SaturationShare
  };

  void MaybeStartBatch();
  void CompleteBatch(TimeUs completion_time);
  /** Batch size `batch`'s costs, computed on first use (two pow calls
   *  each, so the batching hot path pays them once per size). */
  const BatchCost& CostOf(int batch);

  int ibs_;
  TimeUs extra_latency_per_iter_;
  /** Max time the oldest request may wait for co-batching. */
  TimeUs wait_budget_;
  Batcher batcher_;
  RequestSink sink_;
  rckm::KlcMonitor klc_;
  InferenceStats stats_;

  // In-flight batch state. The cost-model constants are fixed for the
  // batch's lifetime, so MaybeStartBatch computes them once.
  bool in_flight_ = false;
  std::vector<workload::Request*> batch_;
  double progress_ = 0.0;
  TimeUs batch_started_ = 0;
  SmRate batch_sat_ = 0.0;     ///< SaturationShare of the batch
  double batch_ideal_ = 0.0;   ///< InferenceIterationFull of the batch

  /** CostOf's cache, indexed by batch size. */
  std::vector<BatchCost> batch_costs_;

  // This quantum's shard grants: the smallest one so far and how many
  // slots have been granted (each slot once per quantum).
  double min_grant_ = 0.0;
  int slots_granted_ = 0;
};

}  // namespace dilu::runtime

#endif  // DILU_RUNTIME_INFERENCE_INSTANCE_H_
