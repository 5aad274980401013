#include "profiler/baseline_profilers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "models/cost_model.h"

namespace dilu::profiler {
namespace {

std::vector<int> BatchGrid(const models::ModelProfile& model)
{
  std::vector<int> batches;
  for (int b = 1; b <= 32; b *= 2) {
    if (b <= model.max_batch || batches.size() < 6) batches.push_back(b);
    if (batches.size() == 6) break;
  }
  return batches;
}

InferenceProfile FinishFromBest(InferenceProfile result, const Trial& best,
                                bool have_best)
{
  if (have_best) {
    result.ibs = best.ibs;
    result.quota.request = best.smr;
    result.quota.limit = std::min(1.0, best.smr * kLimitFactor);
    result.te = best.te;
  } else {
    result.ibs = 1;
    result.quota.request = 1.0;
    result.quota.limit = 1.0;
  }
  return result;
}

}  // namespace

InferenceProfile
ProfileTraversal(const models::ModelProfile& model)
{
  InferenceProfile result;
  Trial best;
  bool have_best = false;
  for (int b : BatchGrid(model)) {
    for (int s = 1; s <= 10; ++s) {
      Trial t = Measure(model, b, s * 0.1);
      ++result.trials;
      result.path.push_back(t);
      if (t.meets_slo && (!have_best || t.te > best.te)) {
        best = t;
        have_best = true;
      }
    }
  }
  return FinishFromBest(std::move(result), best, have_best);
}

InferenceProfile
ProfileInflessPredictive(const models::ModelProfile& model,
                         double prediction_error, Rng rng)
{
  InferenceProfile result;
  Trial best;
  bool have_best = false;
  const double budget_ms = ToMs(models::ExecBudget(model));
  for (int b : BatchGrid(model)) {
    // Operator-decomposition prediction of the required SMR, perturbed
    // by the model's prediction error.
    const double noise = 1.0 + rng.Normal(0.0, prediction_error);
    const double t_sat_ms =
        ToMs(models::InferenceIterationFull(model, b)) * std::max(0.3, noise);
    if (t_sat_ms > budget_ms) {
      // Predicted infeasible: INFless still validates the prediction
      // with a handful of pre-runs around the boundary.
      for (int k = 0; k < 4; ++k) {
        Trial t = Measure(model, b, std::min(1.0, 0.7 + 0.1 * k));
        ++result.trials;
        result.path.push_back(t);
        if (t.meets_slo && (!have_best || t.te > best.te)) {
          best = t;
          have_best = true;
        }
      }
      continue;
    }
    const double predicted =
        models::SaturationShare(model, b) * t_sat_ms / budget_ms;
    // Validate the predicted rate and its neighborhood.
    for (int k = -2; k <= 2; ++k) {
      const SmRate s = std::clamp(predicted + k * 0.1, 0.1, 1.0);
      Trial t = Measure(model, b, s);
      ++result.trials;
      result.path.push_back(t);
      if (t.meets_slo && (!have_best || t.te > best.te)) {
        best = t;
        have_best = true;
      }
    }
  }
  return FinishFromBest(std::move(result), best, have_best);
}

InferenceProfile
ProfileGpulet(const models::ModelProfile& model)
{
  InferenceProfile result;
  Trial best;
  bool have_best = false;
  const int batches[] = {1, 2, 4, 8};
  const double rates[] = {0.2, 0.4, 0.6, 0.8};
  for (int b : batches) {
    if (b > model.max_batch) continue;
    for (double s : rates) {
      Trial t = Measure(model, b, s);
      ++result.trials;
      result.path.push_back(t);
      if (t.meets_slo && (!have_best || t.te > best.te)) {
        best = t;
        have_best = true;
      }
    }
  }
  // Pad to the full 16 when max_batch pruned columns (GPUlet samples a
  // fixed grid regardless).
  while (result.trials < 16) {
    Trial t = Measure(model, model.max_batch, 1.0);
    ++result.trials;
    result.path.push_back(t);
    if (t.meets_slo && (!have_best || t.te > best.te)) {
      best = t;
      have_best = true;
    }
  }
  return FinishFromBest(std::move(result), best, have_best);
}

}  // namespace dilu::profiler
