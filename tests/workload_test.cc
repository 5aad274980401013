/** @file Unit tests for arrival processes and trace generators. */
#include <gtest/gtest.h>

#include "common/stats.h"
#include "workload/arrival.h"
#include "workload/azure_traces.h"

namespace dilu::workload {
namespace {

TEST(ConstantArrivals, ExactGap)
{
  ConstantArrivals a(100.0);
  EXPECT_EQ(a.NextGap(), Ms(10));
}

TEST(PoissonArrivals, MeanRateMatches)
{
  PoissonArrivals a(50.0, Rng(1));
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) {
    acc.Add(static_cast<double>(a.NextGap()));
  }
  EXPECT_NEAR(acc.mean(), 20000.0, 500.0);  // 1/50 s in us
}

TEST(GammaArrivals, CvOneMatchesPoissonMean)
{
  GammaArrivals a(25.0, 1.0, Rng(2));
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) {
    acc.Add(static_cast<double>(a.NextGap()));
  }
  EXPECT_NEAR(acc.mean(), 40000.0, 1500.0);
}

TEST(GammaArrivals, HighCvIsBurstier)
{
  GammaArrivals low(25.0, 0.5, Rng(3));
  GammaArrivals high(25.0, 4.0, Rng(3));
  Accumulator lo;
  Accumulator hi;
  for (int i = 0; i < 30000; ++i) {
    lo.Add(static_cast<double>(low.NextGap()));
    hi.Add(static_cast<double>(high.NextGap()));
  }
  EXPECT_GT(hi.stddev() / hi.mean(), lo.stddev() / lo.mean() * 2.0);
}

TEST(EnvelopeArrivals, TracksRateChanges)
{
  // 10 rps for 5 s then 100 rps for 5 s: expect ~10x arrivals in the
  // second half.
  std::vector<double> env(10, 10.0);
  for (int i = 5; i < 10; ++i) env[static_cast<std::size_t>(i)] = 100.0;
  EnvelopeArrivals a(env, Rng(4));
  int first_half = 0;
  int second_half = 0;
  TimeUs t = 0;
  while (true) {
    t += a.NextGap();
    if (t >= Sec(10)) break;
    (t < Sec(5) ? first_half : second_half)++;
  }
  EXPECT_NEAR(first_half, 50, 25);
  EXPECT_NEAR(second_half, 500, 80);
}

TEST(EnvelopeArrivals, SkipsSilentSeconds)
{
  std::vector<double> env = {0.0, 0.0, 50.0};
  EnvelopeArrivals a(env, Rng(5));
  const TimeUs first = a.NextGap();
  EXPECT_GE(first, Sec(2));  // nothing can arrive before t = 2 s
}

TEST(EnvelopeArrivals, WrapsAround)
{
  std::vector<double> env = {1000.0};
  EnvelopeArrivals a(env, Rng(6));
  TimeUs t = 0;
  for (int i = 0; i < 5000; ++i) t += a.NextGap();
  EXPECT_GT(t, Sec(3));  // ~5 s of simulated arrivals across wraps
}

TEST(BurstyTrace, HasBaseAndSurges)
{
  BurstySpec spec;
  spec.duration_s = 300;
  spec.base_rps = 10.0;
  spec.burst_scale = 4.0;
  const auto env = BuildBurstyTrace(spec);
  ASSERT_EQ(env.size(), 300u);
  double peak = 0.0;
  int base_seconds = 0;
  for (double v : env) {
    peak = std::max(peak, v);
    if (v <= 10.0 + 1e-9) ++base_seconds;
  }
  EXPECT_GT(peak, 30.0);          // surges reach ~base*scale
  EXPECT_GT(base_seconds, 100);   // most time at base load
}

TEST(PeriodicTrace, OscillatesAroundBase)
{
  PeriodicSpec spec;
  spec.duration_s = 240;
  spec.base_rps = 20.0;
  spec.amplitude = 0.8;
  const auto env = BuildPeriodicTrace(spec);
  Accumulator acc;
  for (double v : env) acc.Add(v);
  EXPECT_NEAR(acc.mean(), 20.0, 3.0);
  EXPECT_GT(acc.max(), 30.0);
  EXPECT_LT(acc.min(), 10.0);
}

TEST(SporadicTrace, MostlySilent)
{
  SporadicSpec spec;
  spec.duration_s = 400;
  spec.base_rps = 8.0;
  spec.active_fraction = 0.15;
  const auto env = BuildSporadicTrace(spec);
  int silent = 0;
  for (double v : env) {
    if (v == 0.0) ++silent;
  }
  EXPECT_GT(silent, 300);  // >75% silence
  EXPECT_LT(silent, 400);  // but some activity
}

TEST(Traces, DeterministicForFixedSeed)
{
  BurstySpec spec;
  spec.seed = 99;
  const auto a = BuildBurstyTrace(spec);
  const auto b = BuildBurstyTrace(spec);
  EXPECT_EQ(a, b);
}

TEST(Traces, KindDispatch)
{
  TraceSpec spec;
  spec.duration_s = 60;
  for (TraceKind k : {TraceKind::kBursty, TraceKind::kPeriodic,
                      TraceKind::kSporadic}) {
    const auto env = BuildTrace(k, spec);
    EXPECT_EQ(env.size(), 60u) << ToString(k);
  }
}

// --- arrival-process determinism -------------------------------------
//
// Every ArrivalProcess subclass must replay a byte-identical gap
// sequence for a fixed seed: this is what `dilu_run --seed` (and every
// deterministic bench) stands on. Two independently constructed
// processes drain side by side so a divergence pinpoints the draw.

std::vector<TimeUs>
DrawGaps(ArrivalProcess& p, int n)
{
  std::vector<TimeUs> gaps;
  gaps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) gaps.push_back(p.NextGap());
  return gaps;
}

TEST(ArrivalDeterminism, ConstantReplaysByteIdentically)
{
  ConstantArrivals a(37.0);
  ConstantArrivals b(37.0);
  EXPECT_EQ(DrawGaps(a, 1000), DrawGaps(b, 1000));
}

TEST(ArrivalDeterminism, PoissonReplaysByteIdenticallyForFixedSeed)
{
  PoissonArrivals a(40.0, Rng(0xFEED));
  PoissonArrivals b(40.0, Rng(0xFEED));
  EXPECT_EQ(DrawGaps(a, 1000), DrawGaps(b, 1000));
  // And a different seed is a different stream.
  PoissonArrivals c(40.0, Rng(0xFEED + 1));
  PoissonArrivals d(40.0, Rng(0xFEED));
  EXPECT_NE(DrawGaps(c, 1000), DrawGaps(d, 1000));
}

TEST(ArrivalDeterminism, GammaReplaysByteIdenticallyForFixedSeed)
{
  GammaArrivals a(25.0, 4.0, Rng(0xBEEF));
  GammaArrivals b(25.0, 4.0, Rng(0xBEEF));
  EXPECT_EQ(DrawGaps(a, 1000), DrawGaps(b, 1000));
}

TEST(ArrivalDeterminism, EnvelopeReplaysByteIdenticallyForFixedSeed)
{
  BurstySpec spec;
  spec.duration_s = 60;
  spec.seed = 11;
  const std::vector<double> env = BuildBurstyTrace(spec);
  EnvelopeArrivals a(env, Rng(0xCAFE));
  EnvelopeArrivals b(env, Rng(0xCAFE));
  EXPECT_EQ(DrawGaps(a, 1000), DrawGaps(b, 1000));
}

}  // namespace
}  // namespace dilu::workload
