#include "gpusim/gpu.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"

namespace dilu::gpusim {

Gpu::Gpu(GpuId id, double memory_gb)
    : id_(id), memory_capacity_gb_(memory_gb)
{
}

double
Gpu::memory_used_gb() const
{
  double used = 0.0;
  for (const Attachment& a : attachments_) used += a.memory_gb;
  return used;
}

void
Gpu::Attach(const Attachment& att)
{
  DILU_CHECK(att.client != nullptr);
  if (memory_used_gb() + att.memory_gb > memory_capacity_gb_ + 1e-9) {
    Fatal("GPU " + std::to_string(id_) + " memory overflow attaching "
          + std::to_string(att.id));
  }
  attachments_.push_back(att);
}

void
Gpu::Detach(InstanceId id)
{
  attachments_.erase(
      std::remove_if(attachments_.begin(), attachments_.end(),
                     [id](const Attachment& a) { return a.id == id; }),
      attachments_.end());
}

bool
Gpu::Has(InstanceId id) const
{
  for (const Attachment& a : attachments_) {
    if (a.id == id) return true;
  }
  return false;
}

double
Gpu::reserved_request_share() const
{
  double s = 0.0;
  for (const Attachment& a : attachments_) s += a.quota.request;
  return s;
}

double
Gpu::reserved_limit_share() const
{
  double s = 0.0;
  for (const Attachment& a : attachments_) s += a.quota.limit;
  return s;
}

void
Gpu::RecordQuantum(TimeUs now)
{
  double used = 0.0;
  for (const Attachment& a : attachments_) used += a.granted;
  used_share_ = used;
  utilization_.Update(now, used);
}

double
Gpu::UtilizationIntegral(TimeUs now) const
{
  return utilization_.Integral(now);
}

double
GpuClient::KlcInflation() const
{
  return 0.0;
}

void
ShareArbiter::OnDetach(Gpu& gpu, InstanceId id)
{
  (void)gpu;
  (void)id;
}

void
Gpu::set_compute_capacity(double capacity)
{
  DILU_CHECK(capacity > 0.0 && capacity <= 1.0);
  compute_capacity_ = capacity;
}

void
SqueezeToCapacity(std::vector<Attachment>& atts, double capacity)
{
  double total = 0.0;
  for (const Attachment& a : atts) total += a.granted;
  if (total <= capacity + 1e-12) return;
  const double factor = capacity / total;
  for (Attachment& a : atts) a.granted *= factor;
}

void
StaticArbiter::Resolve(Gpu& gpu, TimeUs now)
{
  (void)now;
  auto& atts = gpu.attachments();
  double granted_total = 0.0;
  double active_static = 0.0;
  for (Attachment& a : atts) {
    a.granted = std::min(a.demand, a.quota.limit);
    granted_total += a.granted;
    if (a.demand > 0.0) active_static += a.quota.limit;
  }
  if (granted_total > gpu.compute_capacity() + 1e-12
      && active_static > 0.0) {
    // Oversubscribed MPS partitions: each active process's effective
    // parallelism degrades toward its quota's proportional share, and
    // the uncoordinated kernel launches thrash caches/DRAM with a cost
    // that grows with the oversubscription degree (the contention MPS
    // cannot arbitrate away; Dilu's host-side token gating keeps the
    // device at or below capacity and avoids this regime).
    const double efficiency = 0.93 / std::sqrt(granted_total);
    for (Attachment& a : atts) {
      if (a.demand <= 0.0) continue;
      const double fair = a.quota.limit / active_static;
      a.granted = std::min(a.granted, fair) * efficiency;
    }
  }
  SqueezeToCapacity(atts, gpu.compute_capacity());
}

}  // namespace dilu::gpusim
