#include "scaling/coldstart.h"

#include "models/cost_model.h"

namespace dilu::scaling {

TimeUs
ColdDuration(const models::ModelProfile& model)
{
  return models::ColdStartDuration(model, kContainerBase, kLoadGbps);
}

TimeUs
WarmDuration(const models::ModelProfile& model)
{
  // Host-memory cache: ~4x faster weight staging, half the container
  // bring-up (runtime image already resident).
  return models::ColdStartDuration(model, kContainerBase / 2,
                                   kLoadGbps * 4.0);
}

}  // namespace dilu::scaling
