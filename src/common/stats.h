/**
 * @file
 * Statistics accumulators used by the metrics layer and the benches.
 *
 * `Accumulator` keeps streaming mean/variance/min/max; `Percentiles`
 * stores duration samples to answer p50/p95/p99 queries (the paper's
 * inference latency metrics); `TimeWeighted` integrates a
 * piecewise-constant signal over simulated time (used for utilization
 * and fragmentation).
 */
#ifndef DILU_COMMON_STATS_H_
#define DILU_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"

namespace dilu {

/** Streaming mean / variance / extrema (Welford's algorithm). */
class Accumulator {
 public:
  void Add(double x);

  /**
   * Fold `other`'s samples into this accumulator as if every Add had
   * happened here (Chan et al.'s parallel variance combination —
   * exact, not an approximation). Merging an empty accumulator is a
   * no-op; merge order does not change mean/min/max and perturbs the
   * variance only at floating-point rounding level, so deterministic
   * callers (the sweep aggregator) must merge in a fixed order.
   */
  void Merge(const Accumulator& other);

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

  /**
   * Half-width of the two-sided Student-t confidence interval on the
   * mean at confidence `level` in (0, 1) (e.g. 0.95): the cell mean
   * is mean() +/- MeanCi(level). Returns 0 with fewer than two
   * samples (no variance estimate exists).
   */
  double MeanCi(double level) const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Sample-storing percentile tracker over non-negative durations.
 *
 * Stores every sample: a single simulation records millions (about
 * 1.6M latencies per `churn_fleet` perfbench run), so each is kept in
 * 4 bytes — whole microseconds below 2^32 (71.6 min) — with a rare
 * 8-byte overflow list for longer ones, keeping the tracker exact up
 * to kTimeCapUs. Queries sort lazily with an LSD radix sort and answer
 * in milliseconds (`ToMs` of the stored sample). `ToMs` is monotone,
 * so every query sees exactly the doubles, in the same order, that
 * sorting `ToMs(sample)` values would give.
 */
class Percentiles {
 public:
  void Add(TimeUs d);

  /** Value (ms) at quantile q in [0, 1] via linear interpolation. */
  double Quantile(double q) const;

  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  std::size_t count() const { return narrow_.size() + wide_.size(); }

  /** Mean in ms, summed in sorted order (independent of query order). */
  double mean() const;

  /** Fraction of samples strictly above `threshold_ms` (SLO violations). */
  double FractionAbove(double threshold_ms) const;

 private:
  /** Sort both lists if an Add happened since the last query. */
  void Sort() const;
  /** Sample i in ms, narrow list first (the i-th smallest after Sort). */
  double SampleMs(std::size_t i) const;

  /** Samples below 2^32 us. Every one is below every `wide_` sample. */
  mutable std::vector<std::uint32_t> narrow_;
  mutable std::vector<TimeUs> wide_;
  mutable bool sorted_ = true;
};

/**
 * Standard normal quantile (inverse CDF) at p in (0, 1): Acklam's
 * rational approximation, |error| < 1.2e-9 — far below the sampling
 * noise any simulated confidence interval carries.
 */
double NormalQuantile(double p);

/**
 * Student-t quantile at p in (0, 1) with df >= 1 degrees of freedom.
 * df 1 and 2 use the exact closed forms; df >= 3 uses the
 * Cornish-Fisher expansion around the normal quantile (relative error
 * under 0.1% for the tail levels confidence intervals use). This is
 * what makes MeanCi's intervals t-based instead of normal-based, which
 * matters at the 3-10 seeds a sweep cell typically aggregates.
 */
double StudentTQuantile(double p, int df);

/**
 * Time-weighted average of a piecewise-constant signal.
 *
 * Call `Update(now, value)` whenever the signal changes; the value is
 * assumed to hold from the previous update until `now`.
 */
class TimeWeighted {
 public:
  void Update(TimeUs now, double value);

  /** Close the interval at `now` and return the time-weighted mean. */
  double Average(TimeUs now) const;

  /** Integrated value * time (in value-microseconds). */
  double Integral(TimeUs now) const;

 private:
  TimeUs last_time_ = 0;
  double last_value_ = 0.0;
  double integral_ = 0.0;
  bool started_ = false;
  TimeUs start_time_ = 0;
};

}  // namespace dilu

#endif  // DILU_COMMON_STATS_H_
