/**
 * @file
 * Steady-state allocation tests for the event core and the GPU quantum
 * engine.
 *
 * The acceptance bar for the hot-path overhaul: EventQueue::ScheduleAt,
 * Cancel and RunOne perform ZERO heap allocations in steady state for
 * callbacks whose captures fit EventCallback::kInlineCapacity (48
 * bytes). Verified with a global operator-new hook that counts every
 * allocation in the process — this test must live in its own binary so
 * the hook cannot interfere with other suites.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "gpusim/gpu_group.h"
#include "models/model_catalog.h"
#include "rckm/token_manager.h"
#include "runtime/inference_instance.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size)
{
  ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size)
{
  ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dilu::sim {
namespace {

/** 40 bytes of captured payload + a counter pointer = 48-byte capture,
 *  exactly the inline budget. */
struct Payload {
  std::uint64_t words[5] = {1, 2, 3, 4, 5};
};
static_assert(sizeof(Payload) == 40, "payload sized to fill the budget");

TEST(EventQueueAlloc, SteadyStateScheduleFireCancelIsAllocationFree)
{
  EventQueue q;
  std::uint64_t sink = 0;

  // Warm-up: reach the high-water mark for the slab, the heap array and
  // the callback storage. Everything after this must come from reuse.
  constexpr int kOutstanding = 32;
  for (int round = 0; round < 4; ++round) {
    EventId ids[kOutstanding];
    const TimeUs base = q.now();
    Payload payload;
    for (int i = 0; i < kOutstanding; ++i) {
      ids[i] = q.ScheduleAt(base + 1 + i % 9, [payload, &sink] {
        sink += payload.words[0];
      });
    }
    for (int i = 0; i < kOutstanding; i += 2) q.Cancel(ids[i]);
    q.RunUntil(base + 16);
  }

  const std::size_t baseline = g_allocations;
  for (int round = 0; round < 1000; ++round) {
    EventId ids[kOutstanding];
    const TimeUs base = q.now();
    Payload payload;
    for (int i = 0; i < kOutstanding; ++i) {
      ids[i] = q.ScheduleAt(base + 1 + i % 9, [payload, &sink] {
        sink += payload.words[0];
      });
    }
    for (int i = 0; i < kOutstanding; i += 2) q.Cancel(ids[i]);
    while (q.RunOne()) {
    }
  }
  EXPECT_EQ(g_allocations, baseline)
      << "schedule/fire/cancel allocated in steady state";
  EXPECT_NE(sink, 0u);
}

TEST(EventQueueAlloc, SteadyStateSourceFireAndRearmIsAllocationFree)
{
  // 32 recurring sources with inline-sized captures, each re-arming
  // itself from its own callback (the open-loop arrival pattern), with
  // ordinary events mixed in at the same instants.
  constexpr int kSources = 32;
  EventQueue q;
  std::uint64_t sink = 0;
  SourceId ids[kSources];
  struct Ctx {
    EventQueue* q;
    SourceId* ids;
    std::uint64_t* sink;
  };
  const Ctx ctx{&q, ids, &sink};
  for (int k = 0; k < kSources; ++k) {
    const std::uint64_t word = static_cast<std::uint64_t>(k) + 1;
    ids[k] = q.AddSource([ctx, k, word] {
      *ctx.sink += word;
      ctx.q->ArmSource(ctx.ids[k], ctx.q->now() + 1 + k % 9);
      if (k % 4 == 0) {
        ctx.q->ScheduleAfter(k % 3, [s = ctx.sink] { ++*s; });
      }
    });
    q.ArmSource(ids[k], 1 + k % 7);
  }
  q.RunUntil(1000);  // warm up: heaps and slab reach their high water

  const std::size_t baseline = g_allocations;
  q.RunUntil(20000);
  EXPECT_EQ(g_allocations, baseline)
      << "source fire/re-arm allocated in steady state";
  EXPECT_GE(q.PendingCount(), static_cast<std::size_t>(kSources));
  EXPECT_NE(sink, 0u);
}

TEST(EventQueueAlloc, OversizedCapturesStillWorkViaHeapFallback)
{
  EventQueue q;
  std::uint64_t sink = 0;
  struct Big {
    std::uint64_t words[9] = {};  // 72 bytes: over the inline budget
  };
  Big big;
  big.words[8] = 7;
  const std::size_t baseline = g_allocations;
  q.ScheduleAt(1, [big, &sink] { sink += big.words[8]; });
  EXPECT_GT(g_allocations, baseline);  // documented fallback allocates
  q.RunOne();
  EXPECT_EQ(sink, 7u);
}

}  // namespace
}  // namespace dilu::sim

namespace dilu::gpusim {
namespace {

/** A client that always wants the same share and does no work. */
class StubClient : public GpuClient {
 public:
  explicit StubClient(InstanceId id) : id_(id) {}
  InstanceId client_id() const override { return id_; }
  double ComputeDemand(int /*slot*/) override { return 0.3; }
  void OnGrant(int /*slot*/, double share) override { granted_ += share; }
  void FinishQuantum(TimeUs /*quantum*/) override { ++quanta_; }
  int quanta() const { return quanta_; }

 private:
  InstanceId id_;
  double granted_ = 0.0;
  int quanta_ = 0;
};

TEST(GpuGroupAlloc, SteadyStateTickIsAllocationFree)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<rckm::DiluArbiter>();
  });
  constexpr int kGpus = 4;
  for (int g = 0; g < kGpus; ++g) group.AddGpu(40.0);
  // Three collocated clients per GPU; the last one also spans GPU 0, so
  // the phase-4 dedupe sees a repeat every quantum.
  std::vector<std::unique_ptr<StubClient>> clients;
  for (int g = 0; g < kGpus; ++g) {
    for (int k = 0; k < 3; ++k) {
      clients.push_back(std::make_unique<StubClient>(
          static_cast<InstanceId>(clients.size())));
      Attachment att;
      att.client = clients.back().get();
      att.id = clients.back()->client_id();
      att.quota = SmQuota{0.3, 0.6};
      att.memory_gb = 2.0;
      group.Attach(static_cast<GpuId>(g), att);
    }
  }
  Attachment span;
  span.client = clients.back().get();
  span.id = clients.back()->client_id();
  span.slot = 1;
  span.quota = SmQuota{0.3, 0.6};
  span.memory_gb = 2.0;
  group.Attach(0, span);

  // Warm-up: arbiter scratch and the engine's client list reach their
  // high-water marks.
  for (int i = 0; i < 100; ++i) group.TickOnce();

  const std::size_t baseline = g_allocations;
  for (int i = 0; i < 1000; ++i) group.TickOnce();
  EXPECT_EQ(g_allocations, baseline)
      << "GpuGroup::TickOnce allocated in steady state";
  for (const auto& c : clients) EXPECT_EQ(c->quanta(), 1100);
}

// The same bar with real clients: collocated inference instances start
// and complete batches through the batcher, the KLC monitor and the
// RCKM, and one of them is detached and re-attached every cycle (the
// token manager forgets it and re-admits it at the end of its list).
TEST(GpuGroupAlloc, InferenceQuantaWithAttachChurnAreAllocationFree)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<rckm::DiluArbiter>();
  });
  const GpuId gpu = group.AddGpu(40.0);
  const models::ModelProfile& model = models::GetModel("bert-base");
  constexpr int kInstances = 3;
  constexpr int kIbs = 2;
  std::int64_t completed = 0;
  std::vector<std::unique_ptr<runtime::InferenceInstance>> insts;
  std::vector<Attachment> atts;
  for (int k = 0; k < kInstances; ++k) {
    insts.push_back(std::make_unique<runtime::InferenceInstance>(
        k, 0, &model, kIbs, &sim));
    insts.back()->BeginColdStart(0);
    insts.back()->set_request_sink(
        [&completed](const workload::Request&) { ++completed; });
    Attachment att;
    att.client = insts.back().get();
    att.id = k;
    att.type = TaskType::kInference;
    att.quota = SmQuota{0.2, 0.5};
    att.memory_gb = 2.0;
    atts.push_back(att);
    group.Attach(gpu, att);
  }
  group.Start();

  // One full batch per instance per cycle; a cycle (8 quanta) is long
  // enough for every batch to finish, so the requests are reused.
  std::vector<workload::Request> reqs(kInstances * kIbs);
  auto cycle = [&](int n) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].arrival = sim.now();
      reqs[i].done = false;
      insts[i / kIbs]->Enqueue(&reqs[i]);
    }
    sim.RunFor(Ms(40));
    const Attachment& churn = atts[static_cast<std::size_t>(n % kInstances)];
    group.DetachEverywhere(churn.id);
    group.Attach(gpu, churn);
  };

  for (int n = 0; n < 20; ++n) cycle(n);
  const std::int64_t warm = completed;

  const std::size_t baseline = g_allocations;
  for (int n = 0; n < 300; ++n) cycle(n);
  EXPECT_EQ(g_allocations, baseline)
      << "inference quanta allocated in steady state";
  EXPECT_EQ(completed - warm, 300 * kInstances * kIbs);
  for (const auto& inst : insts) {
    EXPECT_EQ(inst->stats().batches_executed, 320);
  }
}

}  // namespace
}  // namespace dilu::gpusim
