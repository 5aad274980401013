/** @file Unit tests for the gateway (dispatch + workload monitoring). */
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "cluster/gateway.h"
#include "gpusim/gpu_group.h"

namespace dilu::cluster {
namespace {

/** Harness: two inference instances on separate GPUs. */
struct Rig {
  std::vector<std::unique_ptr<workload::Request>> requests;

  workload::Request* NewRequest() {
    requests.push_back(std::make_unique<workload::Request>());
    requests.back()->function = 0;
    return requests.back().get();
  }

  sim::Simulation sim;
  gpusim::GpuGroup group{&sim, [](GpuId) {
    return std::make_unique<gpusim::StaticArbiter>();
  }};
  const models::ModelProfile& model = models::GetModel("bert-base");
  runtime::InferenceInstance a{1, 0, &model, 4, &sim};
  runtime::InferenceInstance b{2, 0, &model, 4, &sim};
  Gateway gateway{&sim, 7};

  Rig() {
    gateway.RegisterFunction(0);
  }

  void AddBoth(bool warm_a = true, bool warm_b = true) {
    if (warm_a) a.BeginColdStart(0);
    if (warm_b) b.BeginColdStart(0);
    gateway.AddInstance(0, &a);
    gateway.AddInstance(0, &b);
  }
};

TEST(Gateway, DispatchFailsWithoutInstances)
{
  sim::Simulation sim;
  Gateway gw(&sim, 7);
  gw.RegisterFunction(0);
  workload::Request r;
  r.function = 0;
  EXPECT_FALSE(gw.Dispatch(&r));
}

TEST(Gateway, DispatchPicksLeastLoaded)
{
  Rig rig;
  rig.AddBoth();
  workload::Request r1;
  workload::Request r2;
  r1.function = 0;
  r2.function = 0;
  ASSERT_TRUE(rig.gateway.Dispatch(&r1));
  ASSERT_TRUE(rig.gateway.Dispatch(&r2));
  // Least-loaded balancing: one request per instance.
  EXPECT_EQ(rig.a.queue_depth(), 1u);
  EXPECT_EQ(rig.b.queue_depth(), 1u);
}

TEST(Gateway, PrefersRunningOverColdInstances)
{
  Rig rig;
  rig.a.BeginColdStart(0);       // running
  rig.b.BeginColdStart(Sec(10)); // cold for 10 s
  rig.gateway.AddInstance(0, &rig.a);
  rig.gateway.AddInstance(0, &rig.b);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.gateway.Dispatch(rig.NewRequest()));
  }
  EXPECT_EQ(rig.a.queue_depth(), 4u);
  EXPECT_EQ(rig.b.queue_depth(), 0u);
}

TEST(Gateway, FallsBackToColdWhenNothingRuns)
{
  Rig rig;
  rig.a.BeginColdStart(Sec(10));
  rig.gateway.AddInstance(0, &rig.a);
  workload::Request r;
  r.function = 0;
  EXPECT_TRUE(rig.gateway.Dispatch(&r));
  EXPECT_EQ(rig.a.queue_depth(), 1u);
}

TEST(Gateway, PollArrivalsResetsCounter)
{
  Rig rig;
  rig.AddBoth();
  for (int i = 0; i < 5; ++i) {
    rig.gateway.Dispatch(rig.NewRequest());
  }
  EXPECT_DOUBLE_EQ(rig.gateway.PollArrivals(0), 5.0);
  EXPECT_DOUBLE_EQ(rig.gateway.PollArrivals(0), 0.0);
}

TEST(Gateway, RemoveInstanceStopsRouting)
{
  Rig rig;
  rig.AddBoth();
  rig.gateway.RemoveInstance(0, rig.a.client_id());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.gateway.Dispatch(rig.NewRequest()));
  }
  EXPECT_EQ(rig.a.queue_depth(), 0u);
  EXPECT_EQ(rig.b.queue_depth(), 3u);
}

TEST(Gateway, RunningCountTracksState)
{
  Rig rig;
  rig.a.BeginColdStart(0);
  rig.b.BeginColdStart(Sec(5));
  rig.gateway.AddInstance(0, &rig.a);
  rig.gateway.AddInstance(0, &rig.b);
  EXPECT_EQ(rig.gateway.RunningCount(0), 1);
  rig.sim.RunFor(Sec(6));
  EXPECT_EQ(rig.gateway.RunningCount(0), 2);
}

TEST(Gateway, UnknownFunctionHasNoInstances)
{
  sim::Simulation sim;
  Gateway gw(&sim, 7);
  EXPECT_TRUE(gw.instances(42).empty());
  EXPECT_EQ(gw.RunningCount(42), 0);
  EXPECT_DOUBLE_EQ(gw.PollArrivals(42), 0.0);
}

TEST(Gateway, FailedDispatchCountsDropInMetrics)
{
  sim::Simulation sim;
  Gateway gw(&sim, 7);
  MetricsHub metrics;
  metrics.RegisterFunction(0, "f", 100.0);
  gw.set_metrics(&metrics);
  gw.RegisterFunction(0);
  workload::Request r;
  r.function = 0;
  EXPECT_FALSE(gw.Dispatch(&r));
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(metrics.function(0).dropped, 1);
  EXPECT_DOUBLE_EQ(metrics.function(0).AvailabilityPercent(), 0.0);
  EXPECT_EQ(metrics.TotalDropped(), 1);
}

TEST(Gateway, RemoveInstanceRedispatchesQueuedRequests)
{
  Rig rig;
  rig.AddBoth();
  // Load instance a with queued work (b takes the spillover).
  std::vector<workload::Request*> sent;
  for (int i = 0; i < 6; ++i) {
    workload::Request* r = rig.NewRequest();
    sent.push_back(r);
    ASSERT_TRUE(rig.gateway.Dispatch(r));
  }
  ASSERT_EQ(rig.a.queue_depth(), 3u);
  ASSERT_EQ(rig.b.queue_depth(), 3u);

  rig.gateway.RemoveInstance(0, rig.a.client_id());
  // a's queue moved to b: nothing stranded, nothing dropped.
  EXPECT_EQ(rig.a.queue_depth(), 0u);
  EXPECT_EQ(rig.b.queue_depth(), 6u);
  for (workload::Request* r : sent) EXPECT_FALSE(r->dropped);
}

TEST(Gateway, RemoveLastInstanceDropsQueuedRequests)
{
  Rig rig;
  MetricsHub metrics;
  metrics.RegisterFunction(0, "f", 100.0);
  rig.gateway.set_metrics(&metrics);
  rig.a.BeginColdStart(0);
  rig.gateway.AddInstance(0, &rig.a);
  std::vector<workload::Request*> sent;
  for (int i = 0; i < 4; ++i) {
    workload::Request* r = rig.NewRequest();
    sent.push_back(r);
    ASSERT_TRUE(rig.gateway.Dispatch(r));
  }
  rig.gateway.RemoveInstance(0, rig.a.client_id());
  // No survivors: every queued request is dropped — and marked done so
  // its record owner can reclaim it — never stranded.
  EXPECT_EQ(metrics.function(0).dropped, 4);
  for (workload::Request* r : sent) {
    EXPECT_TRUE(r->dropped);
    EXPECT_TRUE(r->done);
  }
}

TEST(Gateway, RedispatchDoesNotCountArrivals)
{
  Rig rig;
  rig.AddBoth();
  workload::Request* r = rig.NewRequest();
  ASSERT_TRUE(rig.gateway.Dispatch(r));
  EXPECT_DOUBLE_EQ(rig.gateway.PollArrivals(0), 1.0);
  // Simulate an instance surrendering the request: re-dispatch must not
  // inflate the scaler's arrival sample.
  std::vector<workload::Request*> orphans;
  rig.a.TakeQueued(&orphans);
  rig.b.TakeQueued(&orphans);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_TRUE(rig.gateway.Redispatch(orphans[0]));
  EXPECT_DOUBLE_EQ(rig.gateway.PollArrivals(0), 0.0);
}

// The gateway resolves functions through an id-indexed table of
// pointers into its map: a copy would index the source's entries.
static_assert(!std::is_copy_constructible_v<Gateway>);
static_assert(!std::is_copy_assignable_v<Gateway>);

// Ids registered out of order leave gaps in the id index; every id
// that was never registered (a gap, past the end, negative) must read
// as empty, exactly as before the index existed.
TEST(Gateway, UnregisteredIdsReadEmptyAroundGaps)
{
  Rig rig;
  for (FunctionId id : {3, 7}) rig.gateway.RegisterFunction(id);
  rig.AddBoth();
  ASSERT_TRUE(rig.gateway.Dispatch(rig.NewRequest()));
  EXPECT_EQ(rig.gateway.instances(0).size(), 2u);
  EXPECT_EQ(rig.gateway.counters(0).arrivals, 1);
  for (FunctionId id : {1, 5, 8, 1000, -1}) {
    EXPECT_TRUE(rig.gateway.instances(id).empty()) << id;
    EXPECT_EQ(rig.gateway.RunningCount(id), 0) << id;
    const GatewayCounters& c = rig.gateway.counters(id);
    EXPECT_EQ(c.arrivals, 0) << id;
    EXPECT_EQ(c.admitted, 0) << id;
    EXPECT_EQ(c.outstanding, 0) << id;
    EXPECT_DOUBLE_EQ(rig.gateway.PollArrivals(id), 0.0) << id;
  }
  EXPECT_TRUE(rig.gateway.instances(3).empty());
  EXPECT_EQ(rig.gateway.counters(7).arrivals, 0);
}

TEST(Gateway, UnregisteredDispatchDrops)
{
  Rig rig;
  rig.AddBoth();
  MetricsHub metrics;
  rig.gateway.set_metrics(&metrics);
  int hook_calls = 0;
  rig.gateway.set_drop_hook([&](const workload::Request&) {
    ++hook_calls;
  });
  workload::Request r;
  r.function = 5;
  EXPECT_FALSE(rig.gateway.Dispatch(&r));
  EXPECT_TRUE(r.dropped);
  EXPECT_FALSE(r.done);
  EXPECT_EQ(hook_calls, 1);
  // Nothing is counted against the unknown function in the gateway;
  // the metrics hub books the drop under the request's id.
  EXPECT_EQ(rig.gateway.counters(5).arrivals, 0);
  EXPECT_EQ(metrics.function(5).dropped, 1);
  // Registered traffic is unaffected.
  EXPECT_EQ(rig.gateway.counters(0).arrivals, 0);
  EXPECT_EQ(rig.a.queue_depth() + rig.b.queue_depth(), 0u);
}

}  // namespace
}  // namespace dilu::cluster
