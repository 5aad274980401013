/**
 * @file
 * Baseline profiling strategies compared in Table 2.
 *
 * - Traversal: exhaustive pre-running over the <IBS, SMR> grid
 *   (6 batch sizes x 10 SM rates = 60 trials).
 * - INFless: operator-level latency *prediction* plus per-batch
 *   validation pre-runs; cheaper than traversal but the prediction
 *   error can mis-place the chosen configuration (the accuracy caveat
 *   in Section 3.2).
 * - GPUlet: fixed coarse sampling grid (4 x 4 = 16 pre-runs) followed
 *   by interpolation.
 *
 * All return the same InferenceProfile shape as the HGS profiler so
 * trial counts and chosen configurations compare directly
 * (tests/profiler_test.cc gates Table 2's counts).
 */
#ifndef DILU_PROFILER_BASELINE_PROFILERS_H_
#define DILU_PROFILER_BASELINE_PROFILERS_H_

#include "common/random.h"
#include "profiler/inference_profiler.h"

namespace dilu::profiler {

/** Exhaustive grid search: the upper bound on trial cost. */
InferenceProfile ProfileTraversal(const models::ModelProfile& model);

/**
 * INFless-style prediction + validation.
 * @param prediction_error  multiplicative latency prediction noise
 *        (e.g. 0.15 = 15%); drawn per configuration from `rng`.
 */
InferenceProfile ProfileInflessPredictive(const models::ModelProfile& model,
                                          double prediction_error,
                                          Rng rng);

/** GPUlet-style fixed 4x4 sampling grid. */
InferenceProfile ProfileGpulet(const models::ModelProfile& model);

}  // namespace dilu::profiler

#endif  // DILU_PROFILER_BASELINE_PROFILERS_H_
