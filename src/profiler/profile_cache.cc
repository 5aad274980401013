#include "profiler/profile_cache.h"

namespace dilu::profiler {

const InferenceProfile&
ProfileCache::Inference(const models::ModelProfile& model)
{
  auto it = inference_.find(model.name);
  if (it == inference_.end()) {
    it = inference_.emplace(model.name, ProfileInference(model)).first;
  }
  return it->second;
}

const TrainingProfile&
ProfileCache::Training(const models::ModelProfile& model)
{
  auto it = training_.find(model.name);
  if (it == training_.end()) {
    it = training_.emplace(model.name, ProfileTraining(model)).first;
  }
  return it->second;
}

}  // namespace dilu::profiler
