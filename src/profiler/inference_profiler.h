/**
 * @file
 * Hybrid Growth Search (HGS) inference profiler (Section 3.2, Fig 4).
 *
 * Searches the <IBS, SMR> plane for the configuration maximizing the
 * throughput-efficacy metric TE = IBS / (t_exec * SMR) subject to the
 * SLO/2 execution budget. IBS grows by doubling while SMR grows linearly
 * by a fixed step (10 SM units = 0.1); infeasible points are repaired by
 * jumping the SMR directly to the (linearly extrapolated) requirement,
 * and a whole batch column is pruned when even 100% SMR cannot meet the
 * budget — the pruning behind Table 2's trial counts (5-8 here; the
 * paper reports 6-9).
 *
 * The star configuration's SMR becomes the `request` quota; the `limit`
 * is empirically set to twice the request (capped at 1.0).
 */
#ifndef DILU_PROFILER_INFERENCE_PROFILER_H_
#define DILU_PROFILER_INFERENCE_PROFILER_H_

#include <vector>

#include "common/types.h"
#include "models/model_catalog.h"

namespace dilu::profiler {

/** One profiling trial record (for Fig 4 path visualization). */
struct Trial {
  int ibs = 1;
  SmRate smr = 0.0;
  double t_exec_ms = 0.0;
  double te = 0.0;
  bool meets_slo = false;
};

/** Outcome of profiling one inference function. */
struct InferenceProfile {
  int ibs = 1;          ///< star batch size
  SmQuota quota;        ///< <request = star SMR, limit = 2 * request>
  double te = 0.0;      ///< star throughput efficacy
  int trials = 0;       ///< pre-running iterations consumed
  std::vector<Trial> path;  ///< every evaluated configuration, in order
};

/** limit = kLimitFactor * request (capped at 1.0), for HGS and the
 *  baseline profilers alike. */
constexpr double kLimitFactor = 2.0;

/** Profile `model` with the Hybrid Growth Search. */
InferenceProfile ProfileInference(const models::ModelProfile& model);

/** Evaluate one configuration (one pre-running trial); the baseline
 *  profilers' trials too. */
Trial Measure(const models::ModelProfile& model, int ibs, SmRate smr);

}  // namespace dilu::profiler

#endif  // DILU_PROFILER_INFERENCE_PROFILER_H_
