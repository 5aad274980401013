#include "scheduler/gpu_state.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace dilu::scheduler {

ClusterState::ClusterState(int gpus)
{
  DILU_CHECK(gpus >= 0);
  const auto size = static_cast<std::size_t>(gpus);
  gpus_.resize(size);
  slots_.resize(size);
  idle_.resize(size);
  for (GpuId id = 0; id < gpus; ++id) {
    const auto u = static_cast<std::size_t>(id);
    gpus_[u].id = id;
    slots_[u].idle_pos = id;
    slots_[u].in_idle_heap = true;
    idle_[u] = id;
  }
  // Ascending ids already satisfy the min-heap order.
  idle_heap_ = idle_;
  schedulable_count_ = gpus;
  effective_capacity_ = static_cast<double>(gpus);
}

GpuInfo&
ClusterState::gpu(GpuId id)
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < gpus_.size());
  return gpus_[static_cast<std::size_t>(id)];
}

const GpuInfo&
ClusterState::gpu(GpuId id) const
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < gpus_.size());
  return gpus_[static_cast<std::size_t>(id)];
}

void
ClusterState::BucketInsert(GpuId id)
{
  const std::size_t u = static_cast<std::size_t>(id);
  const int b = LoadBucketFor(gpus_[u].req_sum);
  slots_[u].bucket = static_cast<std::int8_t>(b);
  slots_[u].bucket_pos =
      static_cast<std::int32_t>(buckets_[static_cast<std::size_t>(b)].size());
  buckets_[static_cast<std::size_t>(b)].push_back(id);
}

void
ClusterState::BucketRemove(GpuId id)
{
  Slot& slot = slots_[static_cast<std::size_t>(id)];
  DILU_CHECK(slot.bucket >= 0);
  std::vector<GpuId>& bucket = buckets_[static_cast<std::size_t>(slot.bucket)];
  const GpuId moved = bucket.back();
  bucket[static_cast<std::size_t>(slot.bucket_pos)] = moved;
  slots_[static_cast<std::size_t>(moved)].bucket_pos = slot.bucket_pos;
  bucket.pop_back();
  slot.bucket = -1;
  slot.bucket_pos = -1;
}

void
ClusterState::BucketUpdate(GpuId id)
{
  const std::size_t u = static_cast<std::size_t>(id);
  if (slots_[u].bucket < 0) return;  // not active: nothing to re-bucket
  if (slots_[u].bucket == LoadBucketFor(gpus_[u].req_sum)) return;
  BucketRemove(id);
  BucketInsert(id);
}

void
ClusterState::SetActive(GpuId id, bool active)
{
  std::vector<GpuId>& from = active ? idle_ : active_;
  std::vector<GpuId>& to = active ? active_ : idle_;
  std::int32_t Slot::*const from_pos =
      active ? &Slot::idle_pos : &Slot::active_pos;
  std::int32_t Slot::*const to_pos =
      active ? &Slot::active_pos : &Slot::idle_pos;

  const std::size_t u = static_cast<std::size_t>(id);
  Slot& slot = slots_[u];
  const std::int32_t pos = slot.*from_pos;
  DILU_CHECK(pos >= 0);
  const GpuId moved = from.back();
  from[static_cast<std::size_t>(pos)] = moved;
  slots_[static_cast<std::size_t>(moved)].*from_pos = pos;
  from.pop_back();
  slot.*from_pos = -1;

  slot.*to_pos = static_cast<std::int32_t>(to.size());
  to.push_back(id);

  if (active) {
    // Unhealthy devices never enter the load buckets (SelectActive must
    // not see them); SetHealth re-inserts on recovery.
    if (gpus_[u].schedulable()) BucketInsert(id);
    // Any idle-heap entry goes stale; MinIdleGpu reclaims it lazily
    // (and it revalidates in place if the GPU goes idle again first).
  } else {
    if (slot.bucket >= 0) BucketRemove(id);
    if (gpus_[u].schedulable() && !slot.in_idle_heap) {
      slot.in_idle_heap = true;
      idle_heap_.push_back(id);
      std::push_heap(idle_heap_.begin(), idle_heap_.end(),
                     std::greater<GpuId>());
    }
  }
}

void
ClusterState::SetHealth(GpuId id, GpuHealth health)
{
  GpuInfo& g = gpu(id);
  if (g.health == health) return;
  const bool was_up = g.schedulable();
  if (g.health == GpuHealth::kDegraded) --degraded_count_;
  if (was_up) effective_capacity_ -= g.capacity;
  g.health = health;
  // Only healing (entering up) restores the whole device; a degraded
  // device that drains or dies keeps its recorded capacity so the
  // scaler derate stays honest while residents run out. Entering
  // degraded through SetHealth keeps the current capacity (SetDegraded
  // is the API that carries a new one).
  if (health == GpuHealth::kDegraded) {
    ++degraded_count_;
  } else if (health == GpuHealth::kUp) {
    g.capacity = 1.0;
  }
  if (g.schedulable()) effective_capacity_ += g.capacity;
  Slot& slot = slots_[static_cast<std::size_t>(id)];
  if (was_up && !g.schedulable()) {
    --schedulable_count_;
    if (slot.bucket >= 0) BucketRemove(id);
    // An idle-heap entry goes stale; MinIdleGpu skips unhealthy tops.
  } else if (!was_up && g.schedulable()) {
    ++schedulable_count_;
    if (g.active()) {
      if (slot.bucket < 0) BucketInsert(id);
    } else if (slot.idle_pos >= 0 && !slot.in_idle_heap) {
      slot.in_idle_heap = true;
      idle_heap_.push_back(id);
      std::push_heap(idle_heap_.begin(), idle_heap_.end(),
                     std::greater<GpuId>());
    }
  }
}

void
ClusterState::SetDegraded(GpuId id, double capacity)
{
  DILU_CHECK(capacity > 0.0 && capacity <= 1.0);
  GpuInfo& g = gpu(id);
  DILU_CHECK(g.schedulable());
  if (g.health != GpuHealth::kDegraded) {
    ++degraded_count_;
    g.health = GpuHealth::kDegraded;
  }
  effective_capacity_ += capacity - g.capacity;
  g.capacity = capacity;
  // Schedulability is unchanged, so every placement index (buckets,
  // min-idle heap, active/idle lists) keeps its membership; only the
  // schedulers' per-candidate cap changes.
}

double
ClusterState::InstanceCapacityFactor(InstanceId instance) const
{
  auto it = placements_.find(instance);
  if (it == placements_.end()) return 1.0;
  double factor = 1.0;
  for (const ShardCommit& s : it->second.shards) {
    factor = std::min(factor, gpu(s.gpu).capacity);
  }
  return factor;
}

GpuId
ClusterState::MinIdleGpu() const
{
  while (!idle_heap_.empty()) {
    const GpuId top = idle_heap_.front();
    const std::size_t u = static_cast<std::size_t>(top);
    if (slots_[u].idle_pos >= 0 && gpus_[u].schedulable()) return top;
    std::pop_heap(idle_heap_.begin(), idle_heap_.end(),
                  std::greater<GpuId>());
    idle_heap_.pop_back();
    slots_[u].in_idle_heap = false;
  }
  return kInvalidGpu;
}

void
ClusterState::Commit(InstanceId instance, FunctionId function,
                     const std::vector<ShardCommit>& shards)
{
  DILU_CHECK(!shards.empty());
  DILU_CHECK(placements_.find(instance) == placements_.end());
  for (const ShardCommit& s : shards) {
    GpuInfo& g = gpu(s.gpu);
    const bool was_active = g.active();
    g.req_sum += s.quota.request;
    g.lim_sum += s.quota.limit;
    g.mem_used += s.mem_gb;
    g.functions.push_back(function);
    ++residency_[function][s.gpu];
    if (!was_active) {
      SetActive(s.gpu, true);
    } else {
      BucketUpdate(s.gpu);
    }
  }
  placements_[instance] = PlacementRecord{function, shards};
}

void
ClusterState::Release(InstanceId instance)
{
  auto it = placements_.find(instance);
  if (it == placements_.end()) return;
  const FunctionId function = it->second.function;
  for (const ShardCommit& s : it->second.shards) {
    GpuInfo& g = gpu(s.gpu);
    g.req_sum = std::max(0.0, g.req_sum - s.quota.request);
    g.lim_sum = std::max(0.0, g.lim_sum - s.quota.limit);
    g.mem_used = std::max(0.0, g.mem_used - s.mem_gb);
    auto f = std::find(g.functions.begin(), g.functions.end(), function);
    if (f != g.functions.end()) g.functions.erase(f);
    auto res = residency_.find(function);
    if (res != residency_.end()) {
      auto per_gpu = res->second.find(s.gpu);
      if (per_gpu != res->second.end() && --per_gpu->second <= 0) {
        res->second.erase(per_gpu);
        if (res->second.empty()) residency_.erase(res);
      }
    }
    if (!g.active()) {
      SetActive(s.gpu, false);
    } else {
      BucketUpdate(s.gpu);
    }
  }
  placements_.erase(it);
}

void
ClusterState::GpusHosting(const std::vector<FunctionId>& functions,
                          std::vector<GpuId>* out) const
{
  out->clear();
  for (FunctionId f : functions) {
    auto it = residency_.find(f);
    if (it == residency_.end()) continue;
    // dilu-lint: allow(unordered-iter drained through the sort below)
    for (const auto& [gpu_id, count] : it->second) {
      (void)count;
      out->push_back(gpu_id);
    }
  }
  // The per-function index is unordered; candidates leave here in id
  // order so no caller can ever observe (or come to depend on) hash
  // order. Selection itself is order-independent — every consumer scans
  // the full list with explicit lowest-id tie-breaks — so this is a
  // contract hardening, not a behavior change.
  std::sort(out->begin(), out->end());
}

std::vector<GpuId>
ClusterState::GpusHosting(const std::vector<FunctionId>& functions) const
{
  std::vector<GpuId> out;
  GpusHosting(functions, &out);  // already sorted ascending
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void
ClusterState::PerturbHashOrderForTests(std::size_t buckets)
{
  placements_.rehash(buckets);
  residency_.rehash(buckets);
  // dilu-lint: allow(unordered-iter test-only hook; rehash order is moot)
  for (auto& [function, per_gpu] : residency_) {
    (void)function;
    per_gpu.rehash(buckets);
  }
}

double
ClusterState::SmFragmentation() const
{
  if (active_.empty()) return 0.0;
  double frag = 0.0;
  for (GpuId id : active_) {
    frag += std::max(0.0, 1.0 - gpus_[static_cast<std::size_t>(id)].req_sum);
  }
  return frag / static_cast<double>(active_.size());
}

double
ClusterState::MemoryFragmentation() const
{
  if (active_.empty()) return 0.0;
  double frag = 0.0;
  for (GpuId id : active_) {
    const GpuInfo& g = gpus_[static_cast<std::size_t>(id)];
    frag += std::max(0.0, g.mem_free() / kGpuMemoryGb);
  }
  return frag / static_cast<double>(active_.size());
}

}  // namespace dilu::scheduler
