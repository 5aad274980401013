/** @file Unit tests for the TGS and FaST-GS baseline arbiters. */
#include <gtest/gtest.h>

#include "baselines/arbiters.h"

namespace dilu::baselines {
namespace {

/** Minimal scripted client. */
class FakeClient : public gpusim::GpuClient {
 public:
  explicit FakeClient(InstanceId id) : id_(id) {}
  InstanceId client_id() const override { return id_; }
  double ComputeDemand(int) override { return 0.0; }
  void OnGrant(int, double) override {}
  void FinishQuantum(TimeUs) override {}

 private:
  InstanceId id_;
};

gpusim::Attachment Make(FakeClient* c, double share, int priority,
                        double demand)
{
  gpusim::Attachment a;
  a.client = c;
  a.id = c->client_id();
  a.quota = {share, share};
  a.memory_gb = 4.0;
  a.priority = priority;
  a.demand = demand;
  return a;
}

TEST(TgsArbiter, ProductiveJobRunsUnthrottled)
{
  gpusim::Gpu gpu(0, 40.0);
  FakeClient hp(1);
  FakeClient lp(2);
  gpu.Attach(Make(&hp, 1.0, /*priority=*/1, /*demand=*/0.7));
  gpu.Attach(Make(&lp, 1.0, /*priority=*/0, /*demand=*/0.8));
  TgsArbiter arb;
  arb.Resolve(gpu, 0);
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.7);
  // Opportunistic job collapses to the probing floor.
  EXPECT_LE(gpu.attachments()[1].granted, 0.03);
}

TEST(TgsArbiter, OpportunisticGrowsSlowlyWhileIdle)
{
  gpusim::Gpu gpu(0, 40.0);
  FakeClient hp(1);
  FakeClient lp(2);
  gpu.Attach(Make(&hp, 1.0, 1, /*demand=*/0.0));  // productive idle
  gpu.Attach(Make(&lp, 1.0, 0, /*demand=*/0.9));
  TgsArbiter arb;
  double prev = 0.0;
  // 100 quanta (500 ms) of idle productive job: growth is conservative.
  for (int i = 0; i < 100; ++i) {
    gpu.attachments()[0].demand = 0.0;
    gpu.attachments()[1].demand = 0.9;
    arb.Resolve(gpu, 0);
    const double g = gpu.attachments()[1].granted;
    EXPECT_GE(g + 1e-12, prev);  // monotone growth while idle
    prev = g;
  }
  EXPECT_LT(prev, 0.1);  // 1.01^100 * 0.02 ~ 0.054: still tiny
  EXPECT_GT(prev, 0.03);
}

TEST(TgsArbiter, CollapseOnProductiveActivity)
{
  gpusim::Gpu gpu(0, 40.0);
  FakeClient hp(1);
  FakeClient lp(2);
  gpu.Attach(Make(&hp, 1.0, 1, 0.0));
  gpu.Attach(Make(&lp, 1.0, 0, 0.9));
  TgsArbiter arb;
  for (int i = 0; i < 200; ++i) {
    gpu.attachments()[0].demand = 0.0;
    gpu.attachments()[1].demand = 0.9;
    arb.Resolve(gpu, 0);
  }
  const double grown = gpu.attachments()[1].granted;
  ASSERT_GT(grown, 0.04);
  // Productive job wakes: opportunistic share collapses immediately.
  gpu.attachments()[0].demand = 0.7;
  gpu.attachments()[1].demand = 0.9;
  arb.Resolve(gpu, 0);
  EXPECT_LE(gpu.attachments()[1].granted, 0.03);
}

TEST(TgsArbiter, ForgetsDetachedInstances)
{
  gpusim::Gpu gpu(0, 40.0);
  FakeClient hp(1);
  FakeClient lp(2);
  gpu.Attach(Make(&hp, 1.0, 1, 0.0));
  gpu.Attach(Make(&lp, 1.0, 0, 0.9));
  TgsArbiter arb;
  for (int i = 0; i < 50; ++i) arb.Resolve(gpu, 0);
  arb.OnDetach(gpu, 2);
  gpu.Detach(2);
  FakeClient lp2(2);  // new instance reuses the id
  gpu.Attach(Make(&lp2, 1.0, 0, 0.9));
  gpu.attachments()[0].demand = 0.0;
  gpu.attachments()[1].demand = 0.9;
  arb.Resolve(gpu, 0);
  // Fresh state: starts from the probing floor again (one growth step).
  EXPECT_LE(gpu.attachments()[1].granted, 0.025);
}

TEST(FastGsArbiter, SpatialPhaseMatchesStaticQuota)
{
  gpusim::Gpu gpu(0, 40.0);
  FakeClient a(1);
  FakeClient b(2);
  gpu.Attach(Make(&a, 0.6, 1, 0.5));
  gpu.Attach(Make(&b, 0.4, 1, 0.3));
  FastGsArbiter arb;
  arb.Resolve(gpu, 0);
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.5);
  EXPECT_DOUBLE_EQ(gpu.attachments()[1].granted, 0.3);
}

TEST(FastGsArbiter, RedistributesIdleCapacityWithOverhead)
{
  gpusim::Gpu gpu(0, 40.0);
  FakeClient a(1);
  FakeClient b(2);
  // a wants more than its partition; b idles.
  gpu.Attach(Make(&a, 0.5, 1, 0.9));
  gpu.Attach(Make(&b, 0.5, 1, 0.0));
  FastGsArbiter arb;
  arb.Resolve(gpu, 0);
  const double granted = gpu.attachments()[0].granted;
  // More than the partition (temporal reuse) but less than the full
  // demand (redistribution efficiency < 1).
  EXPECT_GT(granted, 0.5);
  EXPECT_LT(granted, 0.9);
  // Default efficiency 0.7: 0.5 + 0.7 * 0.4 capped by demand share.
  EXPECT_NEAR(granted, 0.5 + 0.7 * 0.5 * (0.4 / 0.4), 0.06);
}

TEST(FastGsArbiter, NoRedistributionWhenSaturated)
{
  gpusim::Gpu gpu(0, 40.0);
  FakeClient a(1);
  FakeClient b(2);
  gpu.Attach(Make(&a, 0.5, 1, 0.5));
  gpu.Attach(Make(&b, 0.5, 1, 0.5));
  FastGsArbiter arb;
  arb.Resolve(gpu, 0);
  EXPECT_DOUBLE_EQ(gpu.attachments()[0].granted, 0.5);
  EXPECT_DOUBLE_EQ(gpu.attachments()[1].granted, 0.5);
}

}  // namespace
}  // namespace dilu::baselines
