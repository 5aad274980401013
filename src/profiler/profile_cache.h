/**
 * @file
 * ProfileCache: each model's profiles, computed once.
 *
 * Both profilers are pure functions of the model, so a deploy line
 * that repeats a model/task pair would only rerun the same search.
 * The cache holds exactly what the profiler returned, each profile
 * filled the first time it is asked for; callers apply their own
 * overrides (an explicit IBS or quota) to a copy.
 */
#ifndef DILU_PROFILER_PROFILE_CACHE_H_
#define DILU_PROFILER_PROFILE_CACHE_H_

#include <map>
#include <string>

#include "profiler/inference_profiler.h"
#include "profiler/training_profiler.h"

namespace dilu::profiler {

/** Memoizes ProfileInference / ProfileTraining per model name. */
class ProfileCache {
 public:
  const InferenceProfile& Inference(const models::ModelProfile& model);
  const TrainingProfile& Training(const models::ModelProfile& model);

 private:
  std::map<std::string, InferenceProfile> inference_;
  std::map<std::string, TrainingProfile> training_;
};

}  // namespace dilu::profiler

#endif  // DILU_PROFILER_PROFILE_CACHE_H_
