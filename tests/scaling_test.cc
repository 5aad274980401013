/** @file Unit tests for sliding windows, cold starts and scalers. */
#include <gtest/gtest.h>

#include "models/model_catalog.h"
#include "scaling/coldstart.h"
#include "scaling/global_scaler.h"
#include "scaling/sliding_window.h"

namespace dilu::scaling {
namespace {

TEST(SlidingWindow, EvictsOldest)
{
  SlidingWindow w(3);
  w.Push(1.0);
  w.Push(2.0);
  w.Push(3.0);
  w.Push(4.0);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.CountAbove(1.5), 3);  // 2,3,4
  EXPECT_DOUBLE_EQ(w.latest(), 4.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(SlidingWindow, CountsAboveAndBelow)
{
  SlidingWindow w(10);
  for (double v : {1.0, 5.0, 10.0, 20.0}) w.Push(v);
  EXPECT_EQ(w.CountAbove(7.0), 2);
  EXPECT_EQ(w.CountBelow(7.0), 2);
  EXPECT_EQ(w.CountAbove(20.0), 0);  // strict
}

TEST(ColdStart, LargeModelsAreSlower)
{
  const TimeUs bert = ColdDuration(models::GetModel("bert-base"));
  const TimeUs llama = ColdDuration(models::GetModel("llama2-7b"));
  EXPECT_LT(bert, Sec(8));
  EXPECT_GT(llama, Sec(15));
  EXPECT_LT(WarmDuration(models::GetModel("llama2-7b")), llama / 2);
}

TEST(DiluLazyScaler, IgnoresShortBursts)
{
  // A 10 s burst (< phi_out samples) must NOT trigger scale-out:
  // vertical scaling absorbs it (the whole point of lazy scaling).
  DiluLazyScaler s;
  int current = 1;
  for (int t = 0; t < 10; ++t) {
    current = s.Decide(/*rps=*/50.0, current, /*per_instance=*/20.0);
  }
  EXPECT_EQ(current, 1);
}

TEST(DiluLazyScaler, ScalesOutOnSustainedOverload)
{
  DiluLazyScaler s;
  int current = 1;
  int out_at = -1;
  for (int t = 0; t < 25; ++t) {
    const int next = s.Decide(50.0, current, 20.0);
    if (next > current && out_at < 0) out_at = t;
    current = next;
  }
  EXPECT_EQ(current, 2);
  // phi_out = 20 sustained-seconds before the first scale-out.
  EXPECT_GE(out_at, 19);
}

TEST(DiluLazyScaler, ScalesInLazily)
{
  DiluLazyScaler s;
  int current = 3;
  int in_at = -1;
  for (int t = 0; t < 40; ++t) {
    const int next = s.Decide(/*rps=*/5.0, current, 20.0);
    if (next < current && in_at < 0) in_at = t;
    current = next;
  }
  EXPECT_EQ(current, 2);
  EXPECT_GE(in_at, 29);  // phi_in = 30
}

TEST(DiluLazyScaler, NeverBelowMinimum)
{
  DiluLazyScaler s;
  int current = 1;
  for (int t = 0; t < 100; ++t) {
    current = s.Decide(0.0, current, 20.0);
  }
  EXPECT_EQ(current, 1);
}

TEST(EagerScaler, ReactsFast)
{
  EagerScaler s;
  int current = 1;
  int steps_to_scale = 0;
  for (int t = 0; t < 10; ++t) {
    ++steps_to_scale;
    const int next = s.Decide(100.0, current, 20.0);
    if (next > current) {
      current = next;
      break;
    }
  }
  EXPECT_LE(steps_to_scale, 3);
  EXPECT_GE(current, 2);
}

TEST(EagerScaler, JumpsToImpliedCount)
{
  EagerScaler s;
  int current = 1;
  for (int t = 0; t < 5; ++t) current = s.Decide(100.0, current, 20.0);
  EXPECT_GE(current, 5);  // 100 rps / 20 rps-per-instance
}

TEST(KeepAliveScaler, HoldsIdleInstances)
{
  KeepAliveScaler s;
  int current = 3;
  int decisions_before_scale_in = 0;
  for (int t = 0; t < 3 * KeepAliveScaler::kKeepAliveS; ++t) {
    const int next = s.Decide(0.0, current, 20.0);
    ++decisions_before_scale_in;
    if (next < current) {
      current = next;
      break;
    }
  }
  EXPECT_EQ(current, 2);
  // Held for the keep-alive period.
  EXPECT_GE(decisions_before_scale_in, KeepAliveScaler::kKeepAliveS);
}

TEST(MakeHorizontalPolicy, Factory)
{
  EXPECT_EQ(MakeHorizontalPolicy("dilu-lazy")->name(), "dilu-lazy");
  EXPECT_EQ(MakeHorizontalPolicy("eager")->name(), "eager");
  EXPECT_EQ(MakeHorizontalPolicy("keep-alive")->name(), "keep-alive");
}

}  // namespace
}  // namespace dilu::scaling
