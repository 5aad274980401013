#include "gpusim/gpu_group.h"

#include <algorithm>

#include "common/logging.h"

namespace dilu::gpusim {

GpuGroup::GpuGroup(sim::Simulation* sim, ArbiterFactory factory,
                   TimeUs quantum)
    : sim_(sim), factory_(std::move(factory)), quantum_(quantum)
{
  DILU_CHECK(sim_ != nullptr);
  DILU_CHECK(quantum_ > 0);
}

GpuId
GpuGroup::AddGpu(double memory_gb)
{
  const GpuId id = static_cast<GpuId>(gpus_.size());
  gpus_.emplace_back(id, memory_gb);
  arbiters_.emplace_back();
  return id;
}

GpuId
GpuGroup::AddGpus(int count, double memory_gb)
{
  DILU_CHECK(count >= 0);
  const GpuId first = static_cast<GpuId>(gpus_.size());
  gpus_.reserve(gpus_.size() + static_cast<std::size_t>(count));
  for (GpuId id = first; id < first + count; ++id) {
    gpus_.emplace_back(id, memory_gb);
  }
  arbiters_.resize(gpus_.size());
  return first;
}

Gpu&
GpuGroup::gpu(GpuId id)
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < gpus_.size());
  return gpus_[id];
}

const Gpu&
GpuGroup::gpu(GpuId id) const
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < gpus_.size());
  return gpus_[id];
}

ShareArbiter&
GpuGroup::arbiter(GpuId id)
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < arbiters_.size());
  std::unique_ptr<ShareArbiter>& a = arbiters_[id];
  if (a == nullptr) a = factory_(id);
  return *a;
}

void
GpuGroup::Attach(GpuId id, const Attachment& att)
{
  Gpu& g = gpu(id);
  g.Attach(att);
  const auto at = std::lower_bound(live_.begin(), live_.end(), id);
  if (at == live_.end() || *at != id) {
    // The quantum engine reads arbiters_ only for live GPUs, and a GPU
    // becomes live only here: building the arbiter now is in time.
    arbiter(id);
    live_.insert(at, id);
  }
}

void
GpuGroup::DetachEverywhere(InstanceId instance)
{
  // Every GPU holding an attachment is live; the emptied ones stay
  // listed until the next quantum's phase 5.
  for (const GpuId id : live_) {
    Gpu& g = gpus_[id];
    if (g.Has(instance)) {
      arbiters_[id]->OnDetach(g, instance);
      g.Detach(instance);
    }
  }
}

void
GpuGroup::Start()
{
  if (started_) return;
  started_ = true;
  sim_->SchedulePeriodic(sim_->now() + quantum_, quantum_,
                         [this] { Tick(); });
}

void
GpuGroup::TickOnce()
{
  Tick();
}

void
GpuGroup::Tick()
{
  // Phase 1: demands.
  for (const GpuId id : live_) {
    for (Attachment& a : gpus_[id].attachments()) {
      a.demand = std::clamp(a.client->ComputeDemand(a.slot), 0.0, 1.0);
      a.granted = 0.0;
    }
  }
  // Phases 2 and 3: per-GPU arbitration, then that GPU's grants. One
  // walk is safe: OnGrant only stores the share, and no arbiter reads
  // it. Phase 1 must stay separate: a multi-GPU instance's slot-0
  // ComputeDemand may start the batch another GPU's arbiter inspects.
  const TimeUs now = sim_->now();
  for (const GpuId id : live_) {
    Gpu& g = gpus_[id];
    if (!g.occupied()) continue;
    arbiters_[id]->Resolve(g, now);
    for (Attachment& a : g.attachments()) {
      a.client->OnGrant(a.slot, a.granted);
    }
  }
  // Phase 4: advance each distinct client exactly once, in first-seen
  // order. Callbacks may Attach (a newly live GPU is recorded below) or
  // detach.
  finishing_.clear();
  for (const GpuId id : live_) {
    for (Attachment& a : gpus_[id].attachments()) {
      if (!a.client->finish_queued_) {
        a.client->finish_queued_ = true;
        finishing_.push_back(a.client);
      }
    }
  }
  for (GpuClient* c : finishing_) {
    c->finish_queued_ = false;
    c->FinishQuantum(quantum_);
  }

  // Phase 5: utilization accounting. An unattached GPU records its
  // 0-share sample and leaves the live list: with a last value of 0 its
  // integral is exact without further samples.
  std::size_t kept = 0;
  for (const GpuId id : live_) {
    gpus_[id].RecordQuantum(now);
    if (gpus_[id].occupied()) live_[kept++] = id;
  }
  live_.resize(kept);
}

}  // namespace dilu::gpusim
