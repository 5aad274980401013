#include "profiler/inference_profiler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "models/cost_model.h"

namespace dilu::profiler {
namespace {

/** HGS linear SMR growth step (10 SM units); also the initial SMR. */
constexpr SmRate kSmrStep = 0.1;

}  // namespace

Trial
Measure(const models::ModelProfile& model, int ibs, SmRate smr)
{
  Trial t;
  t.ibs = ibs;
  t.smr = smr;
  t.t_exec_ms = ToMs(models::InferenceIteration(model, ibs, smr));
  t.te = models::ThroughputEfficacy(model, ibs, smr);
  t.meets_slo = models::MeetsSlo(model, ibs, smr);
  return t;
}

InferenceProfile
ProfileInference(const models::ModelProfile& model)
{
  InferenceProfile result;
  const double budget_ms = ToMs(models::ExecBudget(model));
  DILU_CHECK(budget_ms > 0.0);

  Trial best;
  bool have_best = false;

  int ibs = 1;
  SmRate smr = kSmrStep;
  double last_fail_ms = -1.0;  // previous infeasible t_exec at this IBS
  while (ibs <= model.max_batch && smr <= 1.0 + 1e-9) {
    Trial t = Measure(model, ibs, std::min(1.0, smr));
    ++result.trials;
    result.path.push_back(t);

    if (!t.meets_slo) {
      // Pruning rule 1: an SMR increase barely moved the latency, so
      // the kernels are saturated and this batch column (and, by
      // surface convexity, all larger ones) can never meet the budget.
      if (last_fail_ms > 0.0 && t.t_exec_ms >= last_fail_ms * 0.95) {
        break;
      }
      last_fail_ms = t.t_exec_ms;
      // Linear-in-SMR repair: below saturation t_exec scales ~1/s, so
      // the required rate extrapolates as s * t / budget.
      const SmRate required = t.smr * t.t_exec_ms / budget_ms;
      if (required > 1.0 + 1e-9) {
        // Pruning rule 2: even the whole GPU cannot meet the budget.
        break;
      }
      // Snap the repaired rate up to the SMR grid and retry same IBS.
      smr = std::min(1.0,
                     std::ceil(required / kSmrStep - 1e-9) * kSmrStep);
      if (smr <= t.smr + 1e-9) smr = t.smr + kSmrStep;
      continue;
    }

    if (!have_best || t.te > best.te) {
      best = t;
      have_best = true;
    } else if (t.te < best.te * 0.98 && t.ibs > best.ibs) {
      // TE started declining along the growth path: convex surface =>
      // the star is behind us.
      break;
    }
    // Hybrid growth: double the IBS; the SMR only grows (linearly, in
    // 10-unit steps via the repair above) when the SLO requires it.
    ibs *= 2;
    last_fail_ms = -1.0;
  }

  if (!have_best) {
    // Degenerate: serve batch 1 at full GPU even if the SLO is tight.
    best = Measure(model, 1, 1.0);
    ++result.trials;
    result.path.push_back(best);
  }

  result.ibs = best.ibs;
  result.quota.request = best.smr;
  result.quota.limit = std::min(1.0, best.smr * kLimitFactor);
  result.te = best.te;
  return result;
}

}  // namespace dilu::profiler
