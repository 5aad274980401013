/** @file Unit tests for the RCKM token manager (Algorithm 2) + KLC. */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rckm/klc_monitor.h"
#include "rckm/token_manager.h"

namespace dilu::rckm {
namespace {

InstanceSample MakeSample(InstanceId id, bool slo, double req, double lim,
                          double blocks = 0.0, double inflation = 0.0)
{
  InstanceSample s;
  s.id = id;
  s.slo_sensitive = slo;
  s.quota = {req, lim};
  s.blocks_launched = blocks;
  s.klc_inflation = inflation;
  return s;
}

/** Tokens granted to `id` (grants are sample-aligned; find by id). */
double Tokens(const std::vector<TokenGrant>& grants, InstanceId id)
{
  for (const TokenGrant& g : grants) {
    if (g.id == id) return g.tokens;
  }
  ADD_FAILURE() << "no grant for instance " << id;
  return -1.0;
}

TEST(KlcMonitor, InflationRelativeToBucketMin)
{
  KlcMonitor m;
  m.Record(4, Ms(25));
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
  m.Record(4, Ms(50));
  EXPECT_DOUBLE_EQ(m.Inflation(), 1.0);  // 25 -> 50 ms doubled
  m.Record(4, Ms(25));
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
}

TEST(KlcMonitor, BucketsIsolateBatchSizes)
{
  KlcMonitor m;
  m.Record(1, Ms(10));
  m.Record(8, Ms(80));  // big batch is slower, but not "contention"
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
  m.Record(8, Ms(120));
  EXPECT_NEAR(m.Inflation(), 0.5, 1e-9);
}

TEST(KlcMonitor, ResetForgets)
{
  KlcMonitor m;
  m.Record(1, Ms(10));
  m.Reset();
  EXPECT_EQ(m.current(), 0);
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
}

TEST(KlcMonitor, SwitchingBackRestoresThatBucketsFloor)
{
  KlcMonitor m;
  m.Record(2, Ms(20));
  m.Record(2, Ms(30));
  m.Record(8, Ms(80));
  EXPECT_EQ(m.minimum(), Ms(80));
  m.Record(2, Ms(40));  // back to bucket 2: its floor is still 20 ms
  EXPECT_EQ(m.minimum(), Ms(20));
  EXPECT_DOUBLE_EQ(m.Inflation(), 1.0);
}

TEST(KlcMonitor, NonPositiveRecordChangesNothing)
{
  KlcMonitor m;
  m.Record(4, Ms(25));
  m.Record(4, Ms(50));
  m.Record(4, 0);
  m.Record(9, -Ms(1));
  EXPECT_EQ(m.current(), Ms(50));
  EXPECT_EQ(m.minimum(), Ms(25));
  EXPECT_DOUBLE_EQ(m.Inflation(), 1.0);
}

TEST(KlcMonitor, ResetClearsTheFloor)
{
  KlcMonitor m;
  m.Record(4, Ms(25));
  m.Record(4, Ms(50));
  m.Reset();
  EXPECT_EQ(m.minimum(), 0);
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
  m.Record(4, Ms(40));  // the old 25 ms floor is gone
  EXPECT_EQ(m.minimum(), Ms(40));
}

TEST(KlcMonitor, NewLowerMinimumSeenAtOnce)
{
  KlcMonitor m;
  m.Record(4, Ms(50));
  m.Record(4, Ms(20));
  EXPECT_EQ(m.minimum(), Ms(20));
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.0);
  m.Record(4, Ms(30));
  EXPECT_DOUBLE_EQ(m.Inflation(), 0.5);
}

TEST(TokenManager, SoloNonSloGetsLimit)
{
  TokenManager tm;
  auto grants = tm.Tick({MakeSample(1, false, 0.4, 0.8, 100.0)});
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 1000.0 * 0.8);
  EXPECT_EQ(tm.state(), ScalingState::kNone);
}

TEST(TokenManager, EmergencyScalesInferenceUpAndTrainingDown)
{
  TokenManager tm;
  // Warm up: both active, contention state.
  for (int i = 0; i < 3; ++i) {
    tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
             MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  // Inference reports 60% KLC inflation while using most of the GPU
  // -> EMERGENCY; training squeezed below its request (the slash floor
  // is the capacity the inference side demonstrably is not using).
  auto grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 900.0, 0.6),
                         MakeSample(2, false, 0.4, 0.9, 300.0)});
  EXPECT_EQ(tm.state(), ScalingState::kEmergency);
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 1000.0);  // MaxTokens * limit
  EXPECT_LT(Tokens(grants, 2), 1000.0 * 0.4);
}

TEST(TokenManager, IdleInferenceScalesDownToRequest)
{
  TokenManager tm;
  // Inference launches nothing for a full rate window.
  std::vector<TokenGrant> grants;
  for (int i = 0; i < 10; ++i) {
    grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 0.0),
                      MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 1000.0 * 0.5);  // request
}

TEST(TokenManager, TrainingRegrowsInRecovery)
{
  TokenManager tm;
  // Trigger emergency to depress the training budget.
  for (int i = 0; i < 3; ++i) {
    tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
             MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  auto depressed = tm.Tick({MakeSample(1, true, 0.5, 1.0, 900.0, 0.8),
                            MakeSample(2, false, 0.4, 0.9, 300.0)});
  const double low = Tokens(depressed, 2);
  // Inference goes idle: rate window drains over 8 periods -> RECOVERY,
  // and the training budget regrows multiplicatively toward the limit.
  std::vector<TokenGrant> grants;
  for (int i = 0; i < 30; ++i) {
    grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 0.0),
                      MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  EXPECT_GT(Tokens(grants, 2), low);
  EXPECT_NEAR(Tokens(grants, 2), 1000.0 * 0.9, 1e-6);  // back at limit
}

TEST(TokenManager, ContentionHoldsAtRequest)
{
  TokenManager tm;
  std::vector<TokenGrant> grants;
  for (int i = 0; i < 5; ++i) {
    grants = tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
                      MakeSample(2, true, 0.3, 0.6, 200.0)});
  }
  EXPECT_EQ(tm.state(), ScalingState::kContention);
  // Request quota plus the contention cushion, capped at the limit.
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), std::min(500.0 * kSloCushion, 1000.0));
  EXPECT_DOUBLE_EQ(Tokens(grants, 2), std::min(300.0 * kSloCushion, 600.0));
}

TEST(TokenManager, MaxTokensScalesBudgets)
{
  TokenManager tm(500.0);  // conservative (Fig 18b left side)
  auto grants = tm.Tick({MakeSample(1, false, 0.4, 0.8, 10.0)});
  EXPECT_DOUBLE_EQ(Tokens(grants, 1), 500.0 * 0.8);
}

TEST(TokenManager, ForgetClearsEmergencyOwner)
{
  TokenManager tm;
  for (int i = 0; i < 3; ++i) {
    tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0),
             MakeSample(2, false, 0.4, 0.9, 300.0)});
  }
  tm.Tick({MakeSample(1, true, 0.5, 1.0, 200.0, 0.9),
           MakeSample(2, false, 0.4, 0.9, 300.0)});
  ASSERT_EQ(tm.state(), ScalingState::kEmergency);
  tm.Forget(1);
  EXPECT_EQ(tm.state(), ScalingState::kRecovery);
}

TEST(TokenManager, TotalTokensAccumulate)
{
  TokenManager tm;
  tm.Tick({MakeSample(1, false, 0.4, 0.8, 10.0)});
  tm.Tick({MakeSample(1, false, 0.4, 0.8, 10.0)});
  EXPECT_GT(tm.total_tokens_issued(), 0.0);
}

/** Six collocated instances over a pattern of idle windows, bursts and
 *  EMERGENCY triggers (inflation above eta_violation) in `period`. */
std::vector<InstanceSample> ScriptedPeriod(int period)
{
  std::vector<InstanceSample> samples;
  for (InstanceId id = 1; id <= 6; ++id) {
    const bool idle = (period + id) % 5 == 0;
    const bool spike = period % 17 == 0 && id == 2;
    samples.push_back(MakeSample(id, id % 2 == 0, 0.15, 0.4,
                                 idle ? 0.0 : 40.0 + 3.0 * id,
                                 spike ? 0.3 : 0.05));
  }
  return samples;
}

// The 64-period script, with instance 3 forgotten after period 30 and
// re-admitted at period 31. The pinned values were recorded from the
// id -> slot hash-map implementation the positional records replaced.
TEST(TokenManager, ScriptedPeriodsMatchRecordedGrants)
{
  TokenManager tm;
  std::string states;
  std::vector<TokenGrant> readmit;
  std::vector<TokenGrant> last;
  for (int period = 0; period < 64; ++period) {
    last = tm.Tick(ScriptedPeriod(period));
    states += ToString(tm.state())[0];
    if (period == 31) readmit = last;
    if (period == 30) tm.Forget(3);
  }
  EXPECT_EQ(tm.total_tokens_issued(), 62830.0);
  EXPECT_EQ(states,
            "ECCCCCCCCCCCCCCCCECCCCCCCCCCCCCCCC"
            "ECCCCCCCCCCCCCCCCECCCCCCCCCCCC");
  const double kFinal[] = {150.0, 172.5, 150.0, 172.5, 150.0, 172.5};
  ASSERT_EQ(last.size(), 6u);
  ASSERT_EQ(readmit.size(), 6u);
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_EQ(last[i].id, static_cast<InstanceId>(i + 1));
    EXPECT_EQ(last[i].tokens, kFinal[i]) << "instance " << i + 1;
    EXPECT_EQ(readmit[i].tokens, kFinal[i]) << "instance " << i + 1;
  }
}

// Records follow their instance, not their position: the same samples
// in a different order every period (attach/detach churn) must get the
// same grants, id for id.
TEST(TokenManager, GrantsIndependentOfSampleOrder)
{
  TokenManager in_order;
  TokenManager shuffled;
  for (int period = 0; period < 64; ++period) {
    const std::vector<InstanceSample> samples = ScriptedPeriod(period);
    std::vector<InstanceSample> rotated = samples;
    std::rotate(rotated.begin(), rotated.begin() + period % 6,
                rotated.end());
    if (period % 4 == 1) std::swap(rotated[0], rotated[5]);
    const std::vector<TokenGrant> a = in_order.Tick(samples);
    const std::vector<TokenGrant>& b = shuffled.Tick(rotated);
    for (std::size_t i = 0; i < rotated.size(); ++i) {
      EXPECT_EQ(b[i].id, rotated[i].id);
      EXPECT_EQ(b[i].tokens, Tokens(a, rotated[i].id))
          << "period " << period << " instance " << rotated[i].id;
    }
    EXPECT_EQ(in_order.state(), shuffled.state()) << "period " << period;
    if (period == 30) {
      in_order.Forget(3);
      shuffled.Forget(3);
    }
  }
  EXPECT_EQ(in_order.total_tokens_issued(),
            shuffled.total_tokens_issued());
}

TEST(ScalingStateNames, AllNamed)
{
  EXPECT_STREQ(ToString(ScalingState::kNone), "NONE");
  EXPECT_STREQ(ToString(ScalingState::kEmergency), "EMERGENCY");
  EXPECT_STREQ(ToString(ScalingState::kRecovery), "RECOVERY");
  EXPECT_STREQ(ToString(ScalingState::kContention), "CONTENTION");
}

}  // namespace
}  // namespace dilu::rckm
