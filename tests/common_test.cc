/**
 * @file Unit tests for the common module (stats, random, types, spec
 * tokens, work pool).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/spec_text.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/work_pool.h"

namespace dilu {
namespace {

TEST(Types, TimeConversions)
{
  EXPECT_EQ(Ms(5), 5000);
  EXPECT_EQ(Sec(2), 2'000'000);
  EXPECT_DOUBLE_EQ(ToMs(Ms(250)), 250.0);
  EXPECT_DOUBLE_EQ(ToSec(Sec(3)), 3.0);
  EXPECT_EQ(kTokenPeriodUs, Ms(5));
}

TEST(Accumulator, MeanVarianceExtrema)
{
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero)
{
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesSingleStream)
{
  // Chan et al.'s pairwise update must reproduce the single-stream
  // moments exactly for these integer-valued samples.
  const double samples[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 8; ++i) {
    whole.Add(samples[i]);
    (i < 3 ? left : right).Add(samples[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(left.variance(), whole.variance());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmptyIsIdentityBothWays)
{
  Accumulator acc;
  acc.Add(3.0);
  acc.Add(5.0);
  Accumulator empty;
  acc.Merge(empty);
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  empty.Merge(acc);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 4.0);
  EXPECT_DOUBLE_EQ(empty.min(), 3.0);
  EXPECT_DOUBLE_EQ(empty.max(), 5.0);
}

TEST(NormalQuantileFn, MatchesTabulatedValues)
{
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-5);
  // Tail region (p < 0.02425) and symmetry.
  EXPECT_NEAR(NormalQuantile(0.001), -3.090232, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.999), 3.090232, 1e-5);
  EXPECT_TRUE(std::isinf(NormalQuantile(0.0)));
  EXPECT_TRUE(std::isinf(NormalQuantile(1.0)));
}

TEST(StudentTQuantileFn, MatchesTabulatedValues)
{
  // Two-sided 95% critical values: t_{0.975, df}.
  EXPECT_NEAR(StudentTQuantile(0.975, 1), 12.7062, 5e-3);   // exact tan
  EXPECT_NEAR(StudentTQuantile(0.975, 2), 4.30265, 1e-4);   // exact
  EXPECT_NEAR(StudentTQuantile(0.975, 3), 3.18245, 5e-3);
  EXPECT_NEAR(StudentTQuantile(0.975, 4), 2.77645, 5e-3);
  EXPECT_NEAR(StudentTQuantile(0.975, 9), 2.26216, 1e-3);
  EXPECT_NEAR(StudentTQuantile(0.975, 30), 2.04227, 1e-4);
  // Median and symmetry.
  EXPECT_NEAR(StudentTQuantile(0.5, 7), 0.0, 1e-9);
  EXPECT_NEAR(StudentTQuantile(0.025, 4), -StudentTQuantile(0.975, 4),
              1e-9);
}

TEST(Accumulator, MeanCiMatchesHandComputedInterval)
{
  // n = 5 samples: mean 30, s = sqrt(250); the 95% half-width is
  // t_{0.975,4} * s / sqrt(5) = 2.7764 * 15.811 / 2.2361 ~= 19.63.
  Accumulator acc;
  for (double x : {10.0, 20.0, 30.0, 40.0, 50.0}) acc.Add(x);
  const double s = acc.stddev();
  const double expected = StudentTQuantile(0.975, 4) * s / std::sqrt(5.0);
  EXPECT_NEAR(acc.MeanCi(0.95), expected, 1e-12);
  EXPECT_NEAR(acc.MeanCi(0.95), 19.63, 0.05);  // vs t-table by hand
}

TEST(Accumulator, MeanCiDegenerateCasesAreZero)
{
  Accumulator acc;
  EXPECT_DOUBLE_EQ(acc.MeanCi(0.95), 0.0);  // empty
  acc.Add(7.0);
  EXPECT_DOUBLE_EQ(acc.MeanCi(0.95), 0.0);  // one sample: no df
  acc.Add(9.0);
  EXPECT_DOUBLE_EQ(acc.MeanCi(0.0), 0.0);   // degenerate level
  EXPECT_DOUBLE_EQ(acc.MeanCi(1.0), 0.0);
  EXPECT_GT(acc.MeanCi(0.95), 0.0);
}

TEST(Percentiles, QuantilesInterpolate)
{
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(Ms(i));
  EXPECT_NEAR(p.P50(), 50.5, 1e-9);
  EXPECT_NEAR(p.P95(), 95.05, 1e-9);
  EXPECT_NEAR(p.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.Quantile(1.0), 100.0, 1e-9);
}

TEST(Percentiles, FractionAbove)
{
  Percentiles p;
  for (int i = 1; i <= 10; ++i) p.Add(Ms(i));
  EXPECT_DOUBLE_EQ(p.FractionAbove(8.0), 0.2);
  EXPECT_DOUBLE_EQ(p.FractionAbove(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.FractionAbove(100.0), 0.0);
}

TEST(Percentiles, AddAfterQueryKeepsSorted)
{
  Percentiles p;
  p.Add(Ms(3));
  p.Add(Ms(1));
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 3.0);
  p.Add(Ms(2));
  EXPECT_DOUBLE_EQ(p.P50(), 2.0);
}

// Regression: a query sorts lazily; Adds AFTER the query must dirty the
// sorted flag again, or later quantiles read a stale order. Exercises
// several query -> add -> query rounds with values landing below,
// inside and above the already-sorted range.
TEST(Percentiles, ResortsAfterEveryPostQueryAdd)
{
  Percentiles p;
  for (int v : {50, 10, 90}) p.Add(Ms(v));
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 10.0);

  p.Add(Ms(1));  // below the sorted minimum
  EXPECT_DOUBLE_EQ(p.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 90.0);

  p.Add(Ms(99));  // above the sorted maximum
  EXPECT_DOUBLE_EQ(p.Quantile(1.0), 99.0);

  p.Add(Ms(45));  // interior
  // Sorted: 1, 10, 45, 50, 90, 99 -> P50 interpolates 45..50.
  EXPECT_DOUBLE_EQ(p.P50(), 47.5);
  EXPECT_EQ(p.count(), 6u);
}

// Regression: mean() used to sum in insertion order before any quantile
// query and in sorted order after one, so the same samples gave two
// means. One huge sample ahead of many tiny ones makes the float sum
// order-dependent (each 0.001 ms added to ~1e12 ms rounds).
TEST(Percentiles, MeanIndependentOfQueryOrder)
{
  Percentiles p;
  p.Add(kTimeCapUs - 1);  // the overflow list
  for (int i = 0; i < 1000; ++i) p.Add(Us(1));
  const double before = p.mean();
  p.P50();
  EXPECT_EQ(p.mean(), before);
  double sorted_sum = 0.0;
  for (int i = 0; i < 1000; ++i) sorted_sum += ToMs(Us(1));
  sorted_sum += ToMs(kTimeCapUs - 1);
  EXPECT_EQ(before, sorted_sum / 1001.0);
}

/** Reference tracker: sorted ToMs doubles, the pre-radix algorithm. */
struct ReferencePercentiles {
  std::vector<double> ms;

  double Quantile(double q)
  {
    if (ms.empty()) return 0.0;
    std::sort(ms.begin(), ms.end());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(ms.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, ms.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return ms[lo] * (1.0 - frac) + ms[hi] * frac;
  }
  double Mean()
  {
    if (ms.empty()) return 0.0;
    std::sort(ms.begin(), ms.end());
    double s = 0.0;
    for (double x : ms) s += x;
    return s / static_cast<double>(ms.size());
  }
  double FractionAbove(double t) const
  {
    if (ms.empty()) return 0.0;
    std::size_t n = 0;
    for (double x : ms) n += x > t ? 1 : 0;
    return static_cast<double>(n) / static_cast<double>(ms.size());
  }
};

/** Compare every query bit-for-bit against the reference. */
void ExpectSameAsReference(const Percentiles& p, ReferencePercentiles* ref,
                           Rng* rng)
{
  ASSERT_EQ(p.count(), ref->ms.size());
  EXPECT_EQ(p.P50(), ref->Quantile(0.50));
  EXPECT_EQ(p.P95(), ref->Quantile(0.95));
  EXPECT_EQ(p.P99(), ref->Quantile(0.99));
  EXPECT_EQ(p.Quantile(0.0), ref->Quantile(0.0));
  EXPECT_EQ(p.Quantile(1.0), ref->Quantile(1.0));
  for (int k = 0; k < 8; ++k) {
    const double q = rng->Uniform();
    EXPECT_EQ(p.Quantile(q), ref->Quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(p.mean(), ref->Mean());
  for (double t : {0.0, 0.5, 1e3, 4294967.295, 4294967.296, 1e9}) {
    EXPECT_EQ(p.FractionAbove(t), ref->FractionAbove(t)) << "t=" << t;
  }
}

// Differential test of the 32-bit radix store against sorted doubles:
// both sides of 2^32 us, zeros, duplicates, n = 0/1/2 and adds after
// queries must all give bit-identical answers.
TEST(Percentiles, MatchesSortedDoubleReference)
{
  Rng rng(0x51A7);
  constexpr TimeUs kNarrowMax = (TimeUs{1} << 32) - 1;
  for (int round = 0; round < 40; ++round) {
    Percentiles p;
    ReferencePercentiles ref;
    ExpectSameAsReference(p, &ref, &rng);  // n = 0
    const int batches = 1 + round % 4;
    for (int b = 0; b < batches; ++b) {
      // Sizes 1 and 2 first, then larger batches.
      const int n = round < 2 ? round + 1
                              : static_cast<int>(rng.UniformInt(1, 3000));
      for (int i = 0; i < n; ++i) {
        TimeUs d = 0;
        switch (rng.UniformInt(0, 5)) {
          case 0: d = 0; break;
          case 1: d = rng.UniformInt(0, 300); break;  // duplicates
          case 2: d = rng.UniformInt(0, Sec(5)); break;
          case 3: d = kNarrowMax - rng.UniformInt(0, 2); break;
          case 4: d = kNarrowMax + rng.UniformInt(1, 3); break;
          default: d = rng.UniformInt(kNarrowMax + 1, kTimeCapUs); break;
        }
        p.Add(d);
        ref.ms.push_back(ToMs(d));
      }
      ExpectSameAsReference(p, &ref, &rng);  // query, then add more
    }
  }
}

TEST(TimeWeighted, PiecewiseConstantAverage)
{
  TimeWeighted tw;
  tw.Update(0, 1.0);
  tw.Update(Sec(1), 3.0);   // value 1.0 held for 1 s
  tw.Update(Sec(3), 0.0);   // value 3.0 held for 2 s
  // average over [0, 4s]: (1*1 + 3*2 + 0*1) / 4 = 1.75
  EXPECT_NEAR(tw.Average(Sec(4)), 1.75, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances)
{
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, ExponentialMeanMatches)
{
  Rng rng(7);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.Add(rng.Exponential(50.0));
  EXPECT_NEAR(acc.mean(), 50.0, 1.5);
}

TEST(Rng, GammaInterarrivalCvMatches)
{
  Rng rng(11);
  for (double cv : {0.5, 1.0, 2.0}) {
    Accumulator acc;
    for (int i = 0; i < 40000; ++i) {
      acc.Add(rng.GammaInterarrival(10.0, cv));
    }
    EXPECT_NEAR(acc.mean(), 10.0, 0.5) << "cv=" << cv;
    EXPECT_NEAR(acc.stddev() / acc.mean(), cv, 0.1) << "cv=" << cv;
  }
}

TEST(Rng, GammaCvZeroIsDeterministic)
{
  Rng rng(3);
  EXPECT_DOUBLE_EQ(rng.GammaInterarrival(25.0, 0.0), 25.0);
}

TEST(Rng, ForkedStreamsDiffer)
{
  Rng parent(5);
  Rng a = parent.Fork();
  Rng b = parent.Fork();
  bool all_equal = true;
  for (int i = 0; i < 16; ++i) {
    if (a.Uniform() != b.Uniform()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, UniformIntBounds)
{
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

// The logging macros must expand to a single expression so that they
// behave correctly inside unbraced if/else: with the old
// `if (level) LogLine(...)` expansion, the `else` below would have
// bound to the macro's hidden `if` and inverted the control flow.
TEST(Logging, MacroIsSafeInUnbracedIfElse)
{
  int taken = 0;
  const bool flag = false;
  if (flag)
    DILU_WARN << "then-branch";
  else
    taken = 1;
  EXPECT_EQ(taken, 1);

  // Stream operands must not be evaluated when the level is disabled.
  const LogLevel saved = Logger::level();
  Logger::set_level(LogLevel::kOff);
  int evaluated = 0;
  // dilu-lint: allow(log-side-effect this test pins exactly the skip semantics the rule protects)
  DILU_ERROR << "side effect: " << ++evaluated;
  EXPECT_EQ(evaluated, 0);
  Logger::set_level(saved);
}

TEST(SpecText, Uint64IsDigitsOnly)
{
  std::uint64_t v = 0;
  EXPECT_TRUE(spec_text::ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ull);
  // Trailing garbage, words, signs, blanks and overflow all fail, and
  // a failed parse leaves the output alone.
  for (const char* bad : {"12x", "abc", "", "-5", " -5", "+5", " 5",
                          "18446744073709551616"}) {
    v = 7;
    EXPECT_FALSE(spec_text::ParseUint64(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "'" << bad << "'";
  }
}

TEST(WorkPool, RunsEveryIndexExactlyOnce)
{
  for (const std::size_t n : {0u, 1u, 7u}) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " threads="
                                        << threads);
      std::vector<std::atomic<int>> runs(n);
      ParallelFor(n, threads, [&](std::size_t i) {
        ASSERT_LT(i, n);
        ++runs[i];
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1);
    }
  }
}

TEST(WorkPool, OneThreadRunsInlineInIndexOrder)
{
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ParallelFor(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkPool, TaskExceptionReachesTheCaller)
{
  for (const int threads : {1, 4}) {
    EXPECT_THROW(ParallelFor(7, threads,
                             [](std::size_t i) {
                               if (i == 3) throw std::runtime_error("x");
                             }),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dilu
