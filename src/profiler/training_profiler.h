/**
 * @file
 * Binary-search training profiler (Section 3.2).
 *
 * Records exclusive throughput T1 at 100% SMR, then binary-searches the
 * SM rate whose throughput reaches T1 * p (within +-2%). p = 0.8 yields
 * the `request` quota, p = 1.0 the `limit` quota.
 *
 * Trials "pre-run" the workload; in this reproduction a trial evaluates
 * the analytic cost model, but the trial *count* — the paper's
 * profiling-efficiency metric (Table 2) — is faithfully accounted.
 */
#ifndef DILU_PROFILER_TRAINING_PROFILER_H_
#define DILU_PROFILER_TRAINING_PROFILER_H_

#include "common/types.h"
#include "models/model_catalog.h"

namespace dilu::profiler {

/** Outcome of profiling one training function. */
struct TrainingProfile {
  SmQuota quota;        ///< <request, limit>
  int trials = 0;       ///< pre-running iterations consumed
};

/**
 * Profile `model` (single-worker pre-run, as in the paper): one binary
 * search for each of the request and limit quotas.
 */
TrainingProfile ProfileTraining(const models::ModelProfile& model);

}  // namespace dilu::profiler

#endif  // DILU_PROFILER_TRAINING_PROFILER_H_
