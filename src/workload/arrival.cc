#include "workload/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dilu::workload {

ConstantArrivals::ConstantArrivals(double rps) : rps_(rps)
{
  DILU_CHECK(rps > 0.0);
}

TimeUs
ConstantArrivals::NextGap()
{
  return static_cast<TimeUs>(1e6 / rps_);
}

PoissonArrivals::PoissonArrivals(double rps, Rng rng)
    : rate_(1.0 / (1e6 / rps)), rng_(rng)
{
  DILU_CHECK(rps > 0.0);
}

TimeUs
PoissonArrivals::NextGap()
{
  return static_cast<TimeUs>(rng_.ExponentialRate(rate_));
}

GammaArrivals::GammaArrivals(double rps, double cv, Rng rng)
    : rps_(rps), cv_(cv), rng_(rng)
{
  DILU_CHECK(rps > 0.0);
  DILU_CHECK(cv >= 0.0);
}

TimeUs
GammaArrivals::NextGap()
{
  return static_cast<TimeUs>(rng_.GammaInterarrival(1e6 / rps_, cv_));
}

EnvelopeArrivals::EnvelopeArrivals(std::vector<double> rps_per_second,
                                   Rng rng)
    : envelope_(std::move(rps_per_second)), rng_(rng)
{
  DILU_CHECK(!envelope_.empty());
}

TimeUs
EnvelopeArrivals::NextGap()
{
  // Walk forward from the last arrival, drawing exponential gaps at the
  // rate of the current envelope second. A gap that crosses a second
  // boundary is re-drawn from the boundary so rate changes take effect
  // promptly (standard thinning-free replay).
  const TimeUs prev = clock_;
  TimeUs cursor = clock_;
  for (int guard = 0; guard < 1'000'000; ++guard) {
    const std::size_t sec = static_cast<std::size_t>(cursor / Sec(1))
        % envelope_.size();
    const double rate = envelope_[sec];
    const TimeUs sec_end = (cursor / Sec(1) + 1) * Sec(1);
    if (rate <= 1e-9) {
      cursor = sec_end;  // silent second: skip to the next
      continue;
    }
    const TimeUs gap = static_cast<TimeUs>(
        std::max(1.0, rng_.Exponential(1e6 / rate)));
    if (cursor + gap <= sec_end) {
      clock_ = cursor + gap;
      return clock_ - prev;
    }
    cursor = sec_end;
  }
  clock_ = cursor + Sec(1);
  return clock_ - prev;
}

}  // namespace dilu::workload
