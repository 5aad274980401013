/** @file Unit tests for the GPU substrate (device, arbiters, engine). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/gpu.h"
#include "gpusim/gpu_group.h"

namespace dilu::gpusim {
namespace {

/** Deterministic scripted client for engine tests. */
class FakeClient : public GpuClient {
 public:
  explicit FakeClient(InstanceId id, double demand = 0.5)
      : id_(id), demand_(demand) {}

  InstanceId client_id() const override { return id_; }
  double ComputeDemand(int) override { return demand_; }
  void OnGrant(int slot, double share) override {
    if (static_cast<std::size_t>(slot) >= grants_.size()) {
      grants_.resize(static_cast<std::size_t>(slot) + 1, 0.0);
    }
    grants_[static_cast<std::size_t>(slot)] = share;
  }
  void FinishQuantum(TimeUs) override { ++quanta_; }

  void set_demand(double d) { demand_ = d; }
  double grant(int slot = 0) const {
    return grants_.empty() ? 0.0 : grants_[static_cast<std::size_t>(slot)];
  }
  int quanta() const { return quanta_; }

 private:
  InstanceId id_;
  double demand_;
  std::vector<double> grants_;
  int quanta_ = 0;
};

Attachment MakeAttachment(FakeClient* c, double share,
                          double mem = 4.0, int priority = 0,
                          int slot = 0)
{
  Attachment a;
  a.client = c;
  a.id = c->client_id();
  a.slot = slot;
  a.quota = {share, share};
  a.memory_gb = mem;
  a.priority = priority;
  return a;
}

TEST(Gpu, MemoryAccounting)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  FakeClient b(2);
  gpu.Attach(MakeAttachment(&a, 0.5, 10.0));
  gpu.Attach(MakeAttachment(&b, 0.3, 16.0));
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 26.0);
  EXPECT_TRUE(gpu.Has(1));
  gpu.Detach(1);
  EXPECT_FALSE(gpu.Has(1));
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 16.0);
}

TEST(Gpu, ReservedShares)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  FakeClient b(2);
  Attachment at = MakeAttachment(&a, 0.6);
  at.quota = {0.3, 0.6};
  gpu.Attach(at);
  Attachment bt = MakeAttachment(&b, 0.4);
  bt.quota = {0.2, 0.4};
  gpu.Attach(bt);
  EXPECT_DOUBLE_EQ(gpu.reserved_request_share(), 0.5);
  EXPECT_DOUBLE_EQ(gpu.reserved_limit_share(), 1.0);
}

TEST(StaticArbiter, GrantsMinOfDemandAndQuota)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1, /*demand=*/0.8);
  FakeClient b(2, /*demand=*/0.1);
  gpu.Attach(MakeAttachment(&a, 0.5));
  gpu.Attach(MakeAttachment(&b, 0.5));
  for (Attachment& at : gpu.attachments()) {
    at.demand = at.client->ComputeDemand(at.slot);
  }
  StaticArbiter arb;
  arb.Resolve(gpu, 0);
  // a capped at quota; b's unused quota NOT reusable by a.
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.5);
  EXPECT_DOUBLE_EQ(gpu.attachments()[1].granted, 0.1);
}

TEST(StaticArbiter, OversubscribedGrantsSqueeze)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1, 0.8);
  FakeClient b(2, 0.8);
  gpu.Attach(MakeAttachment(&a, 0.8));
  gpu.Attach(MakeAttachment(&b, 0.8));
  for (Attachment& at : gpu.attachments()) {
    at.demand = at.client->ComputeDemand(at.slot);
  }
  StaticArbiter arb;
  arb.Resolve(gpu, 0);
  // Quota-proportional fair shares with the oversubscription penalty.
  double total = 0.0;
  for (const Attachment& at : gpu.attachments()) total += at.granted;
  EXPECT_LE(total, 1.0 + 1e-9);
  // fair share 0.5, efficiency 0.93/sqrt(1.6)
  EXPECT_NEAR(gpu.attachments()[0].granted, 0.5 * 0.93 / std::sqrt(1.6),
              1e-9);
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted,
                   gpu.attachments()[1].granted);
}

TEST(SqueezeToCapacity, NoOpUnderCapacity)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  gpu.Attach(MakeAttachment(&a, 0.4));
  gpu.attachments()[0].granted = 0.4;
  SqueezeToCapacity(gpu.attachments(), gpu.compute_capacity());
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.4);
}

TEST(SqueezeToCapacity, SqueezesToDegradedCapacity)
{
  Gpu gpu(0, 40.0);
  gpu.set_compute_capacity(0.5);
  FakeClient a(1);
  FakeClient b(2);
  gpu.Attach(MakeAttachment(&a, 0.4));
  gpu.Attach(MakeAttachment(&b, 0.4));
  gpu.attachments()[0].granted = 0.4;
  gpu.attachments()[1].granted = 0.4;
  SqueezeToCapacity(gpu.attachments(), gpu.compute_capacity());
  // 0.8 total squeezed proportionally into the surviving half-device.
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.25);
  EXPECT_DOUBLE_EQ(gpu.attachments()[1].granted, 0.25);
}

TEST(GpuGroup, TickDeliversGrantsAndAdvancesClientsOnce)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  const GpuId g0 = group.AddGpu(40.0);
  const GpuId g1 = group.AddGpu(40.0);
  FakeClient multi(7, 0.25);
  // One client spanning two GPUs (pipeline shards).
  group.Attach(g0, MakeAttachment(&multi, 0.5, 4.0, 0, /*slot=*/0));
  group.Attach(g1, MakeAttachment(&multi, 0.5, 4.0, 0, /*slot=*/1));
  group.TickOnce();
  EXPECT_DOUBLE_EQ(multi.grant(0), 0.25);
  EXPECT_DOUBLE_EQ(multi.grant(1), 0.25);
  EXPECT_EQ(multi.quanta(), 1);  // FinishQuantum once despite two shards
}

TEST(GpuGroup, DetachEverywhereRemovesAllShards)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  const GpuId g0 = group.AddGpu(40.0);
  const GpuId g1 = group.AddGpu(40.0);
  FakeClient c(3);
  group.Attach(g0, MakeAttachment(&c, 0.5, 4.0, 0, 0));
  group.Attach(g1, MakeAttachment(&c, 0.5, 4.0, 0, 1));
  group.DetachEverywhere(3);
  EXPECT_FALSE(group.gpu(g0).Has(3));
  EXPECT_FALSE(group.gpu(g1).Has(3));
}

TEST(GpuGroup, PeriodicTickRunsOnSimulation)
{
  sim::Simulation sim;
  GpuGroup group(&sim, [](GpuId) {
    return std::make_unique<StaticArbiter>();
  });
  const GpuId g = group.AddGpu(40.0);
  FakeClient c(1, 0.5);
  group.Attach(g, MakeAttachment(&c, 1.0));
  group.Start();
  sim.RunUntil(Ms(50));
  EXPECT_EQ(c.quanta(), 10);  // 50 ms / 5 ms
}

// AddGpu calls no factory: a GPU's arbiter is built on its first
// Attach, or on the first arbiter() call for an idle GPU, and only once.
TEST(GpuGroup, ArbiterIsBuiltOnFirstAttach)
{
  sim::Simulation sim;
  int built = 0;
  GpuGroup group(&sim, [&built](GpuId) {
    ++built;
    return std::make_unique<StaticArbiter>();
  });
  for (int g = 0; g < 64; ++g) group.AddGpu(40.0);
  EXPECT_EQ(built, 0);

  FakeClient a(1, 0.25);
  FakeClient b(2, 0.25);
  group.Attach(3, MakeAttachment(&a, 0.5, 4.0, 0, /*slot=*/0));
  group.Attach(40, MakeAttachment(&a, 0.5, 4.0, 0, /*slot=*/1));
  group.Attach(3, MakeAttachment(&b, 0.5));
  EXPECT_EQ(built, 2);
  group.TickOnce();
  EXPECT_DOUBLE_EQ(a.grant(1), 0.25);
  // Emptied, ticked off the live list, then re-attached: same arbiter.
  group.DetachEverywhere(1);
  group.TickOnce();
  group.Attach(40, MakeAttachment(&a, 0.5));
  EXPECT_EQ(built, 2);

  ShareArbiter& idle = group.arbiter(7);
  EXPECT_EQ(built, 3);
  EXPECT_EQ(&group.arbiter(7), &idle);
  EXPECT_EQ(built, 3);
}

/** A StaticArbiter that counts its Resolve calls. */
class CountingArbiter : public StaticArbiter {
 public:
  explicit CountingArbiter(int* resolves) : resolves_(resolves) {}
  void Resolve(Gpu& gpu, TimeUs now) override {
    ++*resolves_;
    StaticArbiter::Resolve(gpu, now);
  }

 private:
  int* resolves_;
};

/** Logs each FinishQuantum by name, then runs an optional hook. */
class LoggingClient : public FakeClient {
 public:
  LoggingClient(InstanceId id, std::string name,
                std::vector<std::string>* log)
      : FakeClient(id), name_(std::move(name)), log_(log) {}
  void FinishQuantum(TimeUs q) override {
    FakeClient::FinishQuantum(q);
    log_->push_back(name_);
    if (on_finish) on_finish();
  }

  std::function<void()> on_finish;

 private:
  std::string name_;
  std::vector<std::string>* log_;
};

/** A 4,096-GPU group whose arbiters count Resolve calls. */
struct CountingFleet {
  explicit CountingFleet(int gpus = 4096)
      : group(&sim, [this](GpuId) {
          return std::make_unique<CountingArbiter>(&resolves);
        })
  {
    for (int g = 0; g < gpus; ++g) group.AddGpu(40.0);
  }

  sim::Simulation sim;
  int resolves = 0;
  GpuGroup group;
};

TEST(GpuGroupLive, TickResolvesOnlyOccupiedGpus)
{
  CountingFleet f;
  std::vector<std::unique_ptr<FakeClient>> clients;
  std::vector<GpuId> hosts;
  for (int i = 0; i < 44; ++i) {
    // Attach out of id order: the live list must still come out sorted.
    const GpuId g = static_cast<GpuId>((i * 1031) % 4096);
    clients.push_back(std::make_unique<FakeClient>(i, 0.3));
    f.group.Attach(g, MakeAttachment(clients.back().get(), 0.5));
    hosts.push_back(g);
  }
  std::sort(hosts.begin(), hosts.end());
  EXPECT_EQ(f.group.live_gpus(), hosts);
  for (int tick = 1; tick <= 10; ++tick) {
    f.group.TickOnce();
    EXPECT_EQ(f.resolves, 44 * tick);
  }
  EXPECT_EQ(f.group.live_gpus(), hosts);
  for (const auto& c : clients) EXPECT_EQ(c->quanta(), 10);
}

TEST(GpuGroupLive, DetachedGpuRecordsOneIdleQuantumThenFreezes)
{
  CountingFleet f;
  FakeClient c(1, 0.5);
  f.group.Attach(5, MakeAttachment(&c, 1.0));
  f.group.Start();
  f.sim.RunUntil(Ms(22));  // ticks at 5, 10, 15, 20 ms
  f.group.DetachEverywhere(1);
  // Emptied, but listed until its idle sample is recorded.
  EXPECT_EQ(f.group.live_gpus(), std::vector<GpuId>{5});
  EXPECT_DOUBLE_EQ(f.group.gpu(5).used_share(), 0.5);

  f.sim.RunUntil(Ms(25));  // the one idle quantum
  EXPECT_TRUE(f.group.live_gpus().empty());
  EXPECT_DOUBLE_EQ(f.group.gpu(5).used_share(), 0.0);
  const double integral = f.group.gpu(5).UtilizationIntegral(Ms(25));
  EXPECT_DOUBLE_EQ(integral, 0.5 * static_cast<double>(Ms(20)));

  const int resolves = f.resolves;
  f.sim.RunUntil(Sec(1));
  EXPECT_EQ(f.resolves, resolves);
  EXPECT_DOUBLE_EQ(f.group.gpu(5).UtilizationIntegral(Sec(1)), integral);
  EXPECT_EQ(c.quanta(), 4);
}

TEST(GpuGroupLive, MultiSlotClientFinishesOncePerTickInFirstSeenOrder)
{
  CountingFleet f;
  std::vector<std::string> log;
  LoggingClient a(1, "a", &log);
  LoggingClient b(2, "b", &log);
  LoggingClient c(3, "c", &log);
  f.group.Attach(10, MakeAttachment(&a, 0.3, 4.0, 0, /*slot=*/0));
  f.group.Attach(7, MakeAttachment(&b, 0.3));
  f.group.Attach(3, MakeAttachment(&a, 0.3, 4.0, 0, /*slot=*/1));
  f.group.Attach(3, MakeAttachment(&c, 0.3));
  for (int tick = 0; tick < 3; ++tick) f.group.TickOnce();
  // Walked by ascending GPU id: GPU 3 shows a then c, GPU 7 shows b,
  // and GPU 10's second sighting of a is deduplicated.
  const std::vector<std::string> want = {"a", "c", "b", "a", "c",
                                         "b", "a", "c", "b"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(f.resolves, 9);
}

TEST(GpuGroupLive, FinishQuantumMayAttachAndDetach)
{
  CountingFleet f;
  std::vector<std::string> log;
  LoggingClient grower(1, "grower", &log);
  LoggingClient leaver(2, "leaver", &log);
  FakeClient low(3, 0.2);
  FakeClient high(4, 0.2);
  f.group.Attach(100, MakeAttachment(&grower, 0.5));
  f.group.Attach(200, MakeAttachment(&leaver, 0.5));
  // grower attaches fresh GPUs on both sides of the walk in phase 4.
  bool grown = false;
  grower.on_finish = [&] {
    if (grown) return;
    grown = true;
    Attachment lo = MakeAttachment(&low, 0.25);
    lo.granted = 0.25;
    Attachment hi = MakeAttachment(&high, 0.125);
    hi.granted = 0.125;
    f.group.Attach(50, lo);
    f.group.Attach(300, hi);
  };
  leaver.on_finish = [&] { f.group.DetachEverywhere(2); };
  f.group.TickOnce();

  // The GPUs attached in phase 4 are recorded in phase 5 of the same
  // tick; the GPU emptied in phase 4 records 0 and leaves at once.
  EXPECT_EQ(f.group.live_gpus(), (std::vector<GpuId>{50, 100, 300}));
  EXPECT_DOUBLE_EQ(f.group.gpu(50).used_share(), 0.25);
  EXPECT_DOUBLE_EQ(f.group.gpu(300).used_share(), 0.125);
  EXPECT_DOUBLE_EQ(f.group.gpu(200).used_share(), 0.0);
  EXPECT_EQ(f.resolves, 2);
  EXPECT_EQ(low.quanta(), 0);

  f.group.TickOnce();
  EXPECT_EQ(f.resolves, 5);
  EXPECT_EQ(low.quanta(), 1);
  EXPECT_EQ(high.quanta(), 1);
  EXPECT_EQ(leaver.quanta(), 1);
  EXPECT_EQ(grower.quanta(), 2);
  EXPECT_DOUBLE_EQ(f.group.gpu(50).used_share(), 0.2);
}

TEST(Gpu, UtilizationRecording)
{
  Gpu gpu(0, 40.0);
  FakeClient a(1);
  gpu.Attach(MakeAttachment(&a, 0.5));
  gpu.attachments()[0].granted = 0.5;
  gpu.RecordQuantum(Ms(5));
  EXPECT_DOUBLE_EQ(gpu.used_share(), 0.5);
}

}  // namespace
}  // namespace dilu::gpusim
