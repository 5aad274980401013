#include "profiler/training_profiler.h"

#include <algorithm>
#include <cmath>

#include "models/cost_model.h"

namespace dilu::profiler {
namespace {

// The binary search's constants.
constexpr double kRequestFraction = 0.8;  ///< p for the request quota
constexpr double kLimitFraction = 1.0;    ///< p for the limit quota
constexpr double kTolerance = 0.02;       ///< +-2% acceptance band
constexpr int kMaxIterations = 12;        ///< search safety bound
constexpr SmRate kGrid = 0.05;            ///< SMR measurement granularity

/** Snap a rate onto the measurement grid (rounded up). */
SmRate SnapUp(SmRate s)
{
  return std::min(1.0, std::ceil(s / kGrid - 1e-9) * kGrid);
}

/**
 * One binary search for the SMR reaching `fraction` of exclusive
 * throughput; `trials` accumulates the pre-run count.
 */
SmRate
SearchRate(const models::ModelProfile& model, double fraction, int* trials)
{
  // Trial 1: exclusive throughput at high = 100% SMR.
  const double t1 = models::TrainingThroughput(model, 1.0, 1);
  ++*trials;
  const double target = t1 * fraction;
  const double band = t1 * kTolerance;

  SmRate low = 0.0;
  SmRate high = 1.0;
  SmRate best = 1.0;
  for (int i = 0; i < kMaxIterations; ++i) {
    const SmRate mid = SnapUp((low + high) / 2.0);
    const double t = models::TrainingThroughput(model, mid, 1);
    ++*trials;
    if (std::abs(t - target) <= band) {
      best = mid;
      break;
    }
    if (t < target) {
      low = mid;  // underprovisioned
      best = std::min(1.0, mid + kGrid);
    } else {
      high = mid;
      best = mid;
    }
    if (high - low <= kGrid + 1e-9) break;
  }
  return best;
}

}  // namespace

TrainingProfile
ProfileTraining(const models::ModelProfile& model)
{
  TrainingProfile result;
  result.quota.request =
      SearchRate(model, kRequestFraction, &result.trials);
  result.quota.limit =
      SearchRate(model, kLimitFraction, &result.trials);
  if (result.quota.limit < result.quota.request) {
    result.quota.limit = result.quota.request;
  }
  return result;
}

}  // namespace dilu::profiler
