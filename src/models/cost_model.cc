#include "models/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dilu::models {

SmRate
SaturationShare(const ModelProfile& m, int batch)
{
  DILU_CHECK(batch >= 1);
  const double s = m.sat_base * std::pow(static_cast<double>(batch),
                                         m.sat_exp);
  return std::clamp(s, 0.02, 1.0);
}

double
InferenceSpeed(const ModelProfile& m, int batch, SmRate s)
{
  if (s <= 0.0) return 0.0;
  return InferenceSpeed(m, SaturationShare(m, batch), s);
}

double
InferenceSpeed(const ModelProfile& m, SmRate sat, SmRate s)
{
  if (s <= 0.0) return 0.0;
  if (s >= sat) {
    // Residual, nearly-flat gain above saturation: at s = 1 the model is
    // `post_sat_slope` faster than at s = sat (normalized).
    const double span = std::max(1e-9, 1.0 - sat);
    return 1.0 + m.post_sat_slope * (s - sat) / span;
  }
  return s / sat;
}

TimeUs
InferenceIterationFull(const ModelProfile& m, int batch)
{
  const double ms = m.infer_t0_ms
      * std::pow(static_cast<double>(batch), m.batch_exp);
  return static_cast<TimeUs>(ms * 1000.0);
}

TimeUs
InferenceIteration(const ModelProfile& m, int batch, SmRate s)
{
  const double speed = InferenceSpeed(m, batch, s);
  if (speed <= 0.0) return std::numeric_limits<TimeUs>::max() / 4;
  return static_cast<TimeUs>(
      static_cast<double>(InferenceIterationFull(m, batch)) / speed);
}

double
InferenceThroughput(const ModelProfile& m, int batch, SmRate s)
{
  if (s <= 0.0) return 0.0;
  const TimeUs t = InferenceIteration(m, batch, s);
  if (t <= 0) return 0.0;
  return static_cast<double>(batch) / ToSec(t);
}

double
ThroughputEfficacy(const ModelProfile& m, int batch, SmRate s)
{
  if (s <= 0.0) return 0.0;
  return InferenceThroughput(m, batch, s) / s;
}

TimeUs
ExecBudget(const ModelProfile& m)
{
  return static_cast<TimeUs>(m.slo_ms * 1000.0 / 2.0);
}

bool
MeetsSlo(const ModelProfile& m, int batch, SmRate s)
{
  return InferenceIteration(m, batch, s) <= ExecBudget(m);
}

double
TrainingSpeed(const ModelProfile& m, SmRate s)
{
  if (s <= 0.0) return 0.0;
  const double sat = m.train_sat;
  if (s >= sat) {
    const double span = std::max(1e-9, 1.0 - sat);
    return 1.0 + m.post_sat_slope * (s - sat) / span;
  }
  return s / sat;
}

TimeUs
TrainingComputePhase(const ModelProfile& m, SmRate s)
{
  const double speed = TrainingSpeed(m, s);
  if (speed <= 0.0) return std::numeric_limits<TimeUs>::max() / 4;
  return static_cast<TimeUs>(m.train_iter_ms * 1000.0 / speed);
}

TimeUs
TrainingCommPhase(const ModelProfile& m)
{
  return static_cast<TimeUs>(m.train_comm_ms * 1000.0);
}

double
TrainingThroughput(const ModelProfile& m, SmRate s, int workers)
{
  const TimeUs iter = TrainingComputePhase(m, s) + TrainingCommPhase(m);
  if (iter <= 0) return 0.0;
  return static_cast<double>(m.train_batch) * workers / ToSec(iter);
}

double
TrainingThroughputUnits(const ModelProfile& m, SmRate s, int workers)
{
  return TrainingThroughput(m, s, workers) * m.samples_per_unit;
}

TimeUs
ColdStartDuration(const ModelProfile& m, TimeUs container_base,
                  double load_gbps)
{
  DILU_CHECK(load_gbps > 0.0);
  const double load_s = m.param_gb / load_gbps;
  return container_base + static_cast<TimeUs>(load_s * 1e6);
}

double
BlocksPerIteration(const ModelProfile& m, int batch)
{
  // A batch-B iteration at saturation share `sat` runs for t_full and
  // occupies `sat` of the device: blocks = quanta * sat * capacity.
  const double quanta = static_cast<double>(InferenceIterationFull(m, batch))
      / static_cast<double>(kTokenPeriodUs);
  return quanta * SaturationShare(m, batch) * kBlocksPerQuantum;
}

}  // namespace dilu::models
