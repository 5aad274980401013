#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dilu {

void
Accumulator::Add(double x)
{
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void
Accumulator::Merge(const Accumulator& other)
{
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double
Accumulator::mean() const
{
  return count_ == 0 ? 0.0 : mean_;
}

double
Accumulator::variance() const
{
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double
Accumulator::stddev() const
{
  return std::sqrt(variance());
}

double
Accumulator::MeanCi(double level) const
{
  if (count_ < 2 || level <= 0.0 || level >= 1.0) return 0.0;
  const double p = 0.5 + level / 2.0;
  const double t = StudentTQuantile(p, static_cast<int>(count_) - 1);
  return t * stddev() / std::sqrt(static_cast<double>(count_));
}

double
NormalQuantile(double p)
{
  // Acklam's rational approximation: central region plus two tails.
  static constexpr double a[] = {-3.969683028665376e+01,
                                 2.209460984245205e+02,
                                 -2.759285104469687e+02,
                                 1.383577518672690e+02,
                                 -3.066479806614716e+01,
                                 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01,
                                 1.615858368580409e+02,
                                 -1.556989798598866e+02,
                                 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03,
                                 -3.223964580411365e-01,
                                 -2.400758277161838e+00,
                                 -2.549732539343734e+00,
                                 4.374664141464968e+00,
                                 2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03,
                                 3.224671290700398e-01,
                                 2.445134137142996e+00,
                                 3.754408661907416e+00};
  static constexpr double kLow = 0.02425;
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
            + c[5])
        / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - kLow) return -NormalQuantile(1.0 - p);
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
          + a[5])
      * q
      / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r
         + 1.0);
}

double
StudentTQuantile(double p, int df)
{
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  if (df < 1) df = 1;
  if (df == 1) {
    // Cauchy: F^{-1}(p) = tan(pi (p - 1/2)).
    return std::tan(M_PI * (p - 0.5));
  }
  if (df == 2) {
    // Exact: t = (2p-1) sqrt(2 / (1 - (2p-1)^2)).
    const double a = 2.0 * p - 1.0;
    return a * std::sqrt(2.0 / (1.0 - a * a));
  }
  // Cornish-Fisher expansion in powers of 1/df around the normal
  // quantile z (Abramowitz & Stegun 26.7.5).
  const double z = NormalQuantile(p);
  const double n = static_cast<double>(df);
  const double z2 = z * z;
  const double g1 = z * (z2 + 1.0) / 4.0;
  const double g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0;
  const double g3 =
      z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0;
  const double g4 = z
      * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2
         - 945.0)
      / 92160.0;
  return z + g1 / n + g2 / (n * n) + g3 / (n * n * n)
      + g4 / (n * n * n * n);
}

namespace {

/**
 * Sort `keys` ascending: LSD radix sort, four 8-bit digits, skipping
 * every pass in which all keys share the digit (latencies rarely span
 * the top byte).
 */
void
RadixSort(std::vector<std::uint32_t>* keys)
{
  std::size_t counts[4][256] = {};
  for (std::uint32_t k : *keys) {
    for (int d = 0; d < 4; ++d) ++counts[d][(k >> (8 * d)) & 0xFF];
  }
  std::vector<std::uint32_t> buf(keys->size());
  for (int d = 0; d < 4; ++d) {
    std::size_t* c = counts[d];
    const std::uint32_t first = ((*keys)[0] >> (8 * d)) & 0xFF;
    if (c[first] == keys->size()) continue;
    std::size_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const std::size_t n = c[b];
      c[b] = offset;
      offset += n;
    }
    for (std::uint32_t k : *keys) buf[c[(k >> (8 * d)) & 0xFF]++] = k;
    keys->swap(buf);
  }
}

}  // namespace

void
Percentiles::Add(TimeUs d)
{
  DILU_CHECK(d >= 0);
  if (d <= std::numeric_limits<std::uint32_t>::max()) {
    narrow_.push_back(static_cast<std::uint32_t>(d));
  } else {
    wide_.push_back(d);
  }
  sorted_ = false;
}

void
Percentiles::Sort() const
{
  if (sorted_) return;
  if (!narrow_.empty()) RadixSort(&narrow_);
  std::sort(wide_.begin(), wide_.end());
  sorted_ = true;
}

double
Percentiles::SampleMs(std::size_t i) const
{
  return i < narrow_.size() ? ToMs(narrow_[i])
                            : ToMs(wide_[i - narrow_.size()]);
}

double
Percentiles::Quantile(double q) const
{
  const std::size_t n = count();
  if (n == 0) return 0.0;
  Sort();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return SampleMs(lo) * (1.0 - frac) + SampleMs(hi) * frac;
}

double
Percentiles::mean() const
{
  const std::size_t n = count();
  if (n == 0) return 0.0;
  Sort();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += SampleMs(i);
  return s / static_cast<double>(n);
}

double
Percentiles::FractionAbove(double threshold_ms) const
{
  const std::size_t n = count();
  if (n == 0) return 0.0;
  std::size_t above = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (SampleMs(i) > threshold_ms) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(n);
}

void
TimeWeighted::Update(TimeUs now, double value)
{
  if (!started_) {
    started_ = true;
    start_time_ = now;
  } else if (now > last_time_) {
    integral_ += last_value_ * static_cast<double>(now - last_time_);
  }
  last_time_ = now;
  last_value_ = value;
}

double
TimeWeighted::Average(TimeUs now) const
{
  if (!started_ || now <= start_time_) return 0.0;
  const double total = integral_
      + last_value_ * static_cast<double>(now - last_time_);
  return total / static_cast<double>(now - start_time_);
}

double
TimeWeighted::Integral(TimeUs now) const
{
  if (!started_) return 0.0;
  return integral_ + last_value_ * static_cast<double>(now - last_time_);
}

}  // namespace dilu
