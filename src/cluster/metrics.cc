#include "cluster/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace dilu::cluster {

double
FunctionMetrics::SvrPercent() const
{
  if (completed == 0) return 0.0;
  return 100.0 * static_cast<double>(violations)
      / static_cast<double>(completed);
}

void
MetricsHub::RegisterFunction(FunctionId id, const std::string& name,
                             double slo_ms)
{
  FunctionMetrics& m = functions_.Get(id);
  m.name = name;
  m.slo_ms = slo_ms;
}

void
MetricsHub::RecordRequest(FunctionId id, const workload::Request& req)
{
  FunctionMetrics& m = function(id);
  if (req.arrival < m.warmup_until) return;  // warmup traffic
  const TimeUs latency = req.Latency();
  m.latency_ms.Add(latency);
  ++m.completed;
  if (m.slo_ms > 0.0 && ToMs(latency) > m.slo_ms) ++m.violations;
}

double
FunctionMetrics::AvailabilityPercent() const
{
  const std::int64_t offered =
      completed + dropped + shed_admission + shed_retry;
  if (offered == 0) return 100.0;
  return 100.0 * static_cast<double>(completed)
      / static_cast<double>(offered);
}

void
MetricsHub::RecordColdStart(FunctionId id)
{
  ++functions_.Get(id).cold_starts;
}

void
MetricsHub::RecordRecoveryColdStart(FunctionId id)
{
  ++functions_.Get(id).recovery_cold_starts;
}

void
MetricsHub::RecordDrop(FunctionId id, TimeUs arrival)
{
  FunctionMetrics& m = functions_.Get(id);
  if (arrival < m.warmup_until) return;  // warmup traffic
  ++m.dropped;
}

void
MetricsHub::SetServiceClass(FunctionId id, ServiceClass c)
{
  functions_.Get(id).service_class = c;
}

void
MetricsHub::RecordAdmit(FunctionId id, TimeUs arrival)
{
  FunctionMetrics& m = functions_.Get(id);
  if (arrival < m.warmup_until) return;  // warmup traffic
  ++m.admitted;
}

void
MetricsHub::RecordShedAdmission(FunctionId id, TimeUs arrival)
{
  FunctionMetrics& m = functions_.Get(id);
  if (arrival < m.warmup_until) return;  // warmup traffic
  ++m.shed_admission;
}

void
MetricsHub::RecordShedRetry(FunctionId id, TimeUs arrival)
{
  FunctionMetrics& m = functions_.Get(id);
  if (arrival < m.warmup_until) return;  // warmup traffic
  ++m.shed_retry;
}

void
MetricsHub::RecordTrainingRestart(FunctionId id,
                                  std::int64_t lost_iterations)
{
  FunctionMetrics& m = functions_.Get(id);
  ++m.training_restarts;
  m.lost_iterations += lost_iterations;
}

void
MetricsHub::RecordCheckpoint(FunctionId id, TimeUs pause)
{
  FunctionMetrics& m = functions_.Get(id);
  ++m.checkpoints;
  m.checkpoint_pause += pause;
}

void
MetricsHub::SetWarmupUntil(FunctionId id, TimeUs until)
{
  FunctionMetrics& m = functions_.Get(id);
  m.warmup_until = std::max(m.warmup_until, until);
}

void
MetricsHub::RecordFault(TimeUs time, const std::string& kind,
                        const std::string& detail)
{
  faults_.push_back({time, kind, detail});
}

void
MetricsHub::AddGpuTime(double gpu_seconds)
{
  gpu_seconds_ += gpu_seconds;
}

void
MetricsHub::AddSample(const ClusterSample& s)
{
  samples_.push_back(s);
}

void
MetricsHub::AddFabricSample(const fabric::FabricSample& s)
{
  fabric_samples_.push_back(s);
}

const FunctionMetrics&
MetricsHub::function(FunctionId id) const
{
  const FunctionMetrics* m = functions_.Find(id);
  DILU_CHECK(m != nullptr);
  return *m;
}

FunctionMetrics&
MetricsHub::function(FunctionId id)
{
  FunctionMetrics* m = functions_.Find(id);
  DILU_CHECK(m != nullptr);
  return *m;
}

double
MetricsHub::OverallSvrPercent() const
{
  std::int64_t completed = 0;
  std::int64_t violations = 0;
  for (const auto& [id, m] : functions()) {
    completed += m.completed;
    violations += m.violations;
  }
  if (completed == 0) return 0.0;
  return 100.0 * static_cast<double>(violations)
      / static_cast<double>(completed);
}

int
MetricsHub::TotalColdStarts() const
{
  int n = 0;
  for (const auto& [id, m] : functions()) n += m.cold_starts;
  return n;
}

std::int64_t
MetricsHub::TotalDropped() const
{
  std::int64_t n = 0;
  for (const auto& [id, m] : functions()) n += m.dropped;
  return n;
}

std::int64_t
MetricsHub::TotalShed() const
{
  std::int64_t n = 0;
  for (const auto& [id, m] : functions()) {
    n += m.shed_admission + m.shed_retry;
  }
  return n;
}

}  // namespace dilu::cluster
