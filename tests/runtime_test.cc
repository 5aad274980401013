/** @file Unit tests for instances, batching and training jobs. */
#include <gtest/gtest.h>

#include <memory>

#include "gpusim/gpu_group.h"
#include "models/cost_model.h"
#include "runtime/batcher.h"
#include "runtime/inference_instance.h"
#include "runtime/training_instance.h"

namespace dilu::runtime {
namespace {

using models::GetModel;

TEST(Batcher, FifoOrderAndBatchBound)
{
  Batcher b;
  workload::Request r1;
  workload::Request r2;
  workload::Request r3;
  r1.id = 1;
  r2.id = 2;
  r3.id = 3;
  b.Push(&r1);
  b.Push(&r2);
  b.Push(&r3);
  std::vector<workload::Request*> batch;
  b.PopBatch(2, &batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0]->id, 1);
  EXPECT_EQ(batch[1]->id, 2);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Batcher, FifoSurvivesWrapAndGrowth)
{
  Batcher b;
  std::vector<workload::Request> reqs(40);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<std::int64_t>(i);
    reqs[i].arrival = Ms(static_cast<std::int64_t>(i));
  }
  std::vector<workload::Request*> out;
  std::int64_t next_in = 0;
  std::int64_t next_out = 0;
  // Push 5 / pop 3 moves the head around the ring, so the buffer grows
  // while its contents wrap.
  while (next_in + 5 <= static_cast<std::int64_t>(reqs.size())) {
    for (int k = 0; k < 5; ++k) {
      b.Push(&reqs[static_cast<std::size_t>(next_in++)]);
    }
    out.clear();
    b.PopBatch(3, &out);
    for (const workload::Request* r : out) EXPECT_EQ(r->id, next_out++);
  }
  EXPECT_EQ(b.OldestArrival(), Ms(next_out));
  out.clear();
  b.PopBatch(1000, &out);
  for (const workload::Request* r : out) EXPECT_EQ(r->id, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, OldestArrival)
{
  Batcher b;
  EXPECT_EQ(b.OldestArrival(), -1);
  workload::Request r;
  r.arrival = Ms(42);
  b.Push(&r);
  EXPECT_EQ(b.OldestArrival(), Ms(42));
}

/** Harness: one GPU + static arbiter + helpers. */
struct Rig {
  sim::Simulation sim;
  gpusim::GpuGroup group{&sim, [](GpuId) {
    return std::make_unique<gpusim::StaticArbiter>();
  }};
  GpuId gpu = group.AddGpu(40.0);

  void AttachInference(InferenceInstance* inst, double share) {
    gpusim::Attachment a;
    a.client = inst;
    a.id = inst->client_id();
    a.slot = 0;
    a.type = TaskType::kInference;
    a.quota = {share, share};
    a.memory_gb = 4.0;
    a.priority = 1;
    group.Attach(gpu, a);
  }

  void AttachWorker(TrainingInstance* w, double share) {
    gpusim::Attachment a;
    a.client = w;
    a.id = w->client_id();
    a.slot = 0;
    a.type = TaskType::kTraining;
    a.quota = {share, share};
    a.memory_gb = 8.0;
    group.Attach(gpu, a);
  }
};

TEST(InferenceInstance, ServesOneRequestWithinExpectedLatency)
{
  Rig rig;
  const auto& m = GetModel("roberta-large");
  InferenceInstance inst(1, 0, &m, /*ibs=*/4, &rig.sim);
  inst.BeginColdStart(0);
  rig.AttachInference(&inst, 1.0);
  rig.group.Start();

  TimeUs completed_at = -1;
  inst.set_request_sink([&](const workload::Request& r) {
    completed_at = r.completed;
  });
  workload::Request req;
  req.arrival = rig.sim.now();
  inst.Enqueue(&req);
  rig.sim.RunFor(Sec(1));

  ASSERT_GE(completed_at, 0);
  // Batch of 1 at full GPU: the SLO-aware batching wait (~40 ms for a
  // lone request) plus ~t0 (23.3 ms) plus quantum alignment.
  const double latency_ms = ToMs(req.Latency());
  EXPECT_GT(latency_ms, 55.0);
  EXPECT_LT(latency_ms, 85.0);
  EXPECT_EQ(inst.stats().requests_completed, 1);
}

TEST(InferenceInstance, BatchesUpToIbs)
{
  Rig rig;
  const auto& m = GetModel("bert-base");
  InferenceInstance inst(1, 0, &m, /*ibs=*/4, &rig.sim);
  inst.BeginColdStart(0);
  rig.AttachInference(&inst, 1.0);
  rig.group.Start();

  std::vector<std::unique_ptr<workload::Request>> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(std::make_unique<workload::Request>());
    reqs.back()->arrival = rig.sim.now();
    inst.Enqueue(reqs.back().get());
  }
  rig.sim.RunFor(Sec(1));
  EXPECT_EQ(inst.stats().requests_completed, 6);
  // 6 requests with IBS=4 -> one batch of 4 then one of 2.
  EXPECT_EQ(inst.stats().batches_executed, 2);
}

TEST(InferenceInstance, LowerShareMeansHigherLatency)
{
  auto run_with_share = [](double share) {
    Rig rig;
    const auto& m = GetModel("roberta-large");
    InferenceInstance inst(1, 0, &m, 4, &rig.sim);
    inst.BeginColdStart(0);
    rig.AttachInference(&inst, share);
    rig.group.Start();
    workload::Request req;
    req.arrival = rig.sim.now();
    inst.Enqueue(&req);
    rig.sim.RunFor(Sec(2));
    return ToMs(req.Latency());
  };
  const double fast = run_with_share(1.0);
  const double slow = run_with_share(0.1);
  EXPECT_GT(slow, fast * 1.5);
}

TEST(InferenceInstance, ColdStartDelaysServing)
{
  Rig rig;
  const auto& m = GetModel("bert-base");
  InferenceInstance inst(1, 0, &m, 4, &rig.sim);
  inst.BeginColdStart(Sec(3));
  rig.AttachInference(&inst, 1.0);
  rig.group.Start();
  workload::Request req;
  req.arrival = rig.sim.now();
  inst.Enqueue(&req);
  rig.sim.RunFor(Sec(5));
  EXPECT_GT(ToMs(req.Latency()), 3000.0);  // waited out the cold start
}

TEST(InferenceInstance, KlcRecordsIterations)
{
  Rig rig;
  const auto& m = GetModel("bert-base");
  InferenceInstance inst(1, 0, &m, 1, &rig.sim);
  inst.BeginColdStart(0);
  rig.AttachInference(&inst, 1.0);
  rig.group.Start();
  workload::Request req;
  req.arrival = rig.sim.now();
  inst.Enqueue(&req);
  rig.sim.RunFor(Sec(1));
  EXPECT_GT(inst.klc().current(), 0);
}

/**
 * One batch-of-one request on an inference instance pipelined over two
 * GPUs. Each GPU's static arbiter grants min(demand, limit), so the
 * limits set each slot's grant.
 */
struct PipelineRig {
  sim::Simulation sim;
  gpusim::GpuGroup group{&sim, [](GpuId) {
    return std::make_unique<gpusim::StaticArbiter>();
  }};
  InferenceInstance inst;
  workload::Request req;

  PipelineRig(const models::ModelProfile& m, double limit0, double limit1)
      : inst(1, 0, &m, /*ibs=*/1, &sim)
  {
    inst.set_shard_count(2);
    inst.BeginColdStart(0);
    const double limits[] = {limit0, limit1};
    for (int slot = 0; slot < 2; ++slot) {
      gpusim::Attachment a;
      a.client = &inst;
      a.id = inst.client_id();
      a.slot = slot;
      a.type = TaskType::kInference;
      a.quota = {limits[slot], limits[slot]};
      a.memory_gb = 2.0;
      group.Attach(group.AddGpu(40.0), a);
    }
    req.arrival = sim.now();
    inst.Enqueue(&req);
    group.Start();
  }

  gpusim::Attachment& slot(int s)
  {
    return group.gpu(static_cast<GpuId>(s)).attachments().front();
  }
  /** Run through the next quantum's tick. */
  void Quantum() { sim.RunFor(group.quantum()); }
  /** Run quanta until the request completes; returns its completion. */
  TimeUs Finish()
  {
    for (int q = 0; q < 10000 && !req.done; ++q) Quantum();
    EXPECT_TRUE(req.done);
    return req.completed;
  }
};

TEST(InferenceInstance, PipelineShardsAdvanceAtTheSmallerGrant)
{
  const auto& m = GetModel("bert-base");
  // Both limits sit below the per-shard demand, so both bind.
  const double demand = models::SaturationShare(m, 1) / 2.0;
  const double hi = 0.8 * demand;
  const double lo = 0.4 * demand;

  PipelineRig rig(m, hi, lo);
  int quanta = 0;
  while (!rig.req.done) {
    const double before = rig.inst.stats().blocks_launched_total;
    rig.Quantum();
    ++quanta;
    ASSERT_LT(quanta, 10000);
    EXPECT_DOUBLE_EQ(rig.slot(0).granted, hi);
    EXPECT_DOUBLE_EQ(rig.slot(1).granted, lo);
    // Both attachments publish the one per-slot count, and the total
    // gains it once per slot.
    const double blocks = rig.slot(0).client->blocks_launched();
    EXPECT_EQ(rig.slot(1).client->blocks_launched(), blocks);
    EXPECT_DOUBLE_EQ(rig.inst.stats().blocks_launched_total - before,
                     2.0 * blocks);
    if (!rig.req.done) {
      // A full quantum at the smaller grant on both shards.
      EXPECT_DOUBLE_EQ(blocks, lo * models::kBlocksPerQuantum);
    }
  }
  ASSERT_GT(quanta, 2);

  // Progress runs at the smaller grant: the same completion as two
  // shards at `lo`, later than two at `hi`.
  PipelineRig both_lo(m, lo, lo);
  PipelineRig both_hi(m, hi, hi);
  EXPECT_EQ(both_lo.Finish(), rig.req.completed);
  EXPECT_LT(both_hi.Finish(), rig.req.completed);

  // A quantum in which one shard is granted 0 advances nothing: the
  // batch completes exactly one quantum later.
  PipelineRig stalled(m, hi, lo);
  stalled.Quantum();
  ASSERT_FALSE(stalled.req.done);
  const double total = stalled.inst.stats().blocks_launched_total;
  stalled.slot(1).quota.limit = 0.0;
  stalled.Quantum();
  EXPECT_EQ(stalled.slot(1).granted, 0.0);
  EXPECT_EQ(stalled.slot(0).client->blocks_launched(), 0.0);
  EXPECT_EQ(stalled.inst.stats().blocks_launched_total, total);
  stalled.slot(1).quota.limit = lo;
  EXPECT_EQ(stalled.Finish(), rig.req.completed + stalled.group.quantum());
}

TEST(TrainingJob, IteratesAndTracksThroughput)
{
  Rig rig;
  const auto& m = GetModel("bert-base");
  TrainingJob job(0, &m, /*workers=*/1, &rig.sim);
  auto w = job.MakeWorker(1, 0);
  w->BeginColdStart(0);
  rig.AttachWorker(w.get(), 1.0);
  rig.group.Start();
  rig.sim.RunFor(Sec(10));
  // Iteration = ~170 ms compute + 55 ms comm -> ~4.4 iters/s.
  const auto iters = job.stats().iterations_completed;
  EXPECT_GT(iters, 35);
  EXPECT_LT(iters, 50);
  EXPECT_GT(job.ThroughputUnits(rig.sim.now()), 0.0);
}

TEST(TrainingJob, LockstepWaitsForSlowestWorker)
{
  // Two workers, one at full share and one throttled: iteration pace is
  // set by the slow worker (the barrel effect).
  Rig rig;
  const GpuId gpu2 = rig.group.AddGpu(40.0);
  const auto& m = GetModel("bert-base");
  TrainingJob job(0, &m, 2, &rig.sim);
  auto w0 = job.MakeWorker(1, 0);
  auto w1 = job.MakeWorker(2, 1);
  w0->BeginColdStart(0);
  w1->BeginColdStart(0);
  rig.AttachWorker(w0.get(), 1.0);
  gpusim::Attachment a;
  a.client = w1.get();
  a.id = 2;
  a.type = TaskType::kTraining;
  a.quota = {0.3, 0.3};
  a.memory_gb = 8.0;
  rig.group.Attach(gpu2, a);
  rig.group.Start();
  rig.sim.RunFor(Sec(10));

  // Solo full-speed would give ~44 iters; throttled worker at 0.3 share
  // (~0.35 speed) stretches compute ~2.8x.
  const auto iters = job.stats().iterations_completed;
  EXPECT_LT(iters, 25);
  EXPECT_GT(iters, 5);
}

TEST(TrainingJob, TargetIterationsFinishesJob)
{
  Rig rig;
  const auto& m = GetModel("bert-base");
  TrainingJob job(0, &m, 1, &rig.sim, /*target_iterations=*/5);
  bool finished = false;
  job.set_on_finished([&] { finished = true; });
  auto w = job.MakeWorker(1, 0);
  w->BeginColdStart(0);
  rig.AttachWorker(w.get(), 1.0);
  rig.group.Start();
  rig.sim.RunFor(Sec(10));
  EXPECT_TRUE(finished);
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.stats().iterations_completed, 5);
  EXPECT_GE(job.stats().finished_at, 0);
}

TEST(TrainingInstance, NoDemandDuringCommPhase)
{
  Rig rig;
  const auto& m = GetModel("gpt2-large");
  TrainingJob job(0, &m, 1, &rig.sim);
  auto w = job.MakeWorker(1, 0);
  w->BeginColdStart(0);
  rig.AttachWorker(w.get(), 1.0);
  rig.group.Start();
  // Sample demand over time: must be zero during comm phases, which for
  // GPT2-large occupy >40% of the iteration (Observation-2).
  int zero_demand = 0;
  int total = 0;
  rig.sim.SchedulePeriodic(Ms(7), Ms(7), [&] {
    ++total;
    if (w->ComputeDemand(0) == 0.0) ++zero_demand;
  });
  rig.sim.RunFor(Sec(10));
  EXPECT_GT(static_cast<double>(zero_demand) / total, 0.30);
}

}  // namespace
}  // namespace dilu::runtime
