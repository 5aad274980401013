#include "cluster/cluster.h"

#include <algorithm>
#include <limits>

#include "baselines/arbiters.h"
#include "common/logging.h"
#include "models/cost_model.h"
#include "profiler/inference_profiler.h"
#include "profiler/training_profiler.h"
#include "scheduler/baseline_schedulers.h"

namespace dilu::cluster {
namespace {

/**
 * Deferred-recovery backoff ceiling: the retry delay doubles from
 * ClusterConfig::recovery_retry (1 s by default) up to base << 5, after
 * which the runtime logs a `recovery_starved` fault record instead of
 * escalating further.
 */
constexpr int kRecoveryBackoffMaxShift = 5;

/**
 * Checkpoint snapshot size relative to the model's parameters: params
 * plus optimizer moments (the Adam-style 2x state), written
 * sequentially to the checkpoint store when the fabric is enabled.
 */
constexpr double kCheckpointStateFactor = 3.0;

gpusim::ArbiterFactory
MakeArbiterFactory(const ClusterConfig& config)
{
  const std::string& kind = config.sharing;
  if (kind == "dilu") {
    rckm::TokenManagerConfig tokens = config.tokens;
    return [tokens](GpuId) {
      return std::make_unique<rckm::DiluArbiter>(tokens);
    };
  }
  if (kind == "static") {
    return [](GpuId) { return std::make_unique<gpusim::StaticArbiter>(); };
  }
  if (kind == "tgs") {
    return [](GpuId) { return std::make_unique<baselines::TgsArbiter>(); };
  }
  if (kind == "fastgs") {
    return [](GpuId) {
      return std::make_unique<baselines::FastGsArbiter>();
    };
  }
  Fatal("unknown sharing mode: " + kind);
}

std::unique_ptr<scheduler::Scheduler>
MakeScheduler(const ClusterConfig& config)
{
  if (config.scheduler == "dilu") {
    return std::make_unique<scheduler::DiluScheduler>(config.sched);
  }
  if (config.scheduler == "exclusive") {
    return std::make_unique<scheduler::ExclusiveScheduler>();
  }
  if (config.scheduler == "static") {
    return std::make_unique<scheduler::StaticQuotaScheduler>(
        "static-" + config.quota_mode);
  }
  Fatal("unknown scheduler mode: " + config.scheduler);
}

}  // namespace

const ClusterPreset*
FindPreset(std::string_view name)
{
  for (const ClusterPreset& p : kPresets) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

ClusterConfig
PresetConfig(std::string_view name)
{
  const ClusterPreset* p = FindPreset(name);
  if (p == nullptr) Fatal("unknown cluster preset: " + std::string(name));
  ClusterConfig c;
  c.sharing = p->sharing;
  c.scheduler = p->scheduler;
  c.quota_mode = p->quota_mode;
  c.warm_starts = p->warm_starts;
  return c;
}

ClusterRuntime::ClusterRuntime(ClusterConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
  if (config_.recovery != "joint" && config_.recovery != "greedy") {
    Fatal("unknown recovery mode: " + config_.recovery);
  }
  DILU_CHECK(config_.recovery_retry > 0);
  if (config_.fabric.enabled) {
    // The fabric's posting-jitter stream derives from the cluster seed
    // so `--seed` re-keys it with everything else.
    fabric_ = std::make_unique<fabric::FabricPlane>(
        config_.fabric, config_.nodes,
        config_.seed * 0x9E3779B97F4A7C15ull + 0xFABull);
  }
  gpu_group_ = std::make_unique<gpusim::GpuGroup>(
      &sim_, MakeArbiterFactory(config_));
  scheduler_ = MakeScheduler(config_);
  gateway_.set_metrics(&metrics_);
  gateway_.Bind(&sim_, config_.seed);
  // A dropped request is a closed-loop client's completion signal too:
  // without this, a fault that eats a request would wedge the client.
  // Only requests the closed loop itself issued continue the loop —
  // an open-loop drop (chaos surge, mixed stream) must not spawn a
  // phantom client.
  gateway_.set_drop_hook([this](const workload::Request& r) {
    if (r.closed_loop) ScheduleClosedLoopIssue(r.function);
  });
  for (int n = 0; n < config_.nodes; ++n) {
    Node node;
    node.id = n;
    for (int g = 0; g < config_.gpus_per_node; ++g) {
      const GpuId gpu = gpu_group_->AddGpu(config_.gpu_memory_gb);
      const GpuId mirrored = state_.AddGpu(n, config_.gpu_memory_gb);
      DILU_CHECK(gpu == mirrored);
      node.gpus.push_back(gpu);
    }
    nodes_.push_back(node);
  }
  gpu_group_->Start();
  // 1 Hz cluster snapshots (fragmentation / occupancy time series).
  sim_.SchedulePeriodic(Sec(1), Sec(1), [this] { SampleCluster(); });
}

ClusterRuntime::~ClusterRuntime()
{
  // Flush GPU-time accounting for still-live instances.
  for (auto& [id, rec] : instances_) {
    if (!rec.released) {
      metrics_.AddGpuTime(rec.gpu_time_rate
                          * ToSec(sim_.now() - rec.launched_at));
      rec.released = true;
    }
  }
}

void
ClusterRuntime::ProfileSpec(core::FunctionSpec* spec) const
{
  const models::ModelProfile& m = models::GetModel(spec->model);
  if (spec->type == TaskType::kInference) {
    if (spec->ibs <= 0 || spec->quota.request <= 0.0) {
      profiler::InferenceProfiler prof;
      const profiler::InferenceProfile p = prof.Profile(m);
      if (spec->ibs <= 0) spec->ibs = p.ibs;
      if (spec->quota.request <= 0.0) spec->quota = p.quota;
    }
    if (spec->per_instance_rps <= 0.0) {
      spec->per_instance_rps = models::InferenceThroughput(
          m, spec->ibs, spec->quota.request);
    }
  } else {
    if (spec->quota.request <= 0.0) {
      profiler::TrainingProfiler prof;
      spec->quota = prof.Profile(m).quota;
    }
  }
}

FunctionId
ClusterRuntime::Deploy(const core::FunctionSpec& spec)
{
  DILU_CHECK(models::HasModel(spec.model));
  DeployedFunction f;
  f.id = next_function_id_++;
  f.spec = spec;
  f.model = &models::GetModel(spec.model);
  f.submitted_at = sim_.now();
  ProfileSpec(&f.spec);
  metrics_.RegisterFunction(f.id, f.spec.display_name(), f.model->slo_ms);
  if (spec.type == TaskType::kInference) {
    gateway_.RegisterFunction(f.id);
    metrics_.SetServiceClass(f.id, f.spec.admission_class);
    AdmissionConfig adm;
    adm.service_class = f.spec.admission_class;
    adm.queue_cap = f.spec.queue_cap;
    adm.retry_budget = f.spec.retry_budget;
    if (f.spec.retry_backoff > 0) adm.retry_backoff = f.spec.retry_backoff;
    adm.deadline = f.spec.deadline;
    gateway_.ConfigureAdmission(f.id, adm);
  }
  const FunctionId id = f.id;
  functions_[id] = std::move(f);
  return id;
}

SmQuota
ClusterRuntime::QuotaForMode(const SmQuota& profiled) const
{
  if (config_.quota_mode == "dilu") return profiled;
  if (config_.quota_mode == "limit") {
    return {profiled.limit, profiled.limit};
  }
  if (config_.quota_mode == "request") {
    return {profiled.request, profiled.request};
  }
  if (config_.quota_mode == "full") return {1.0, 1.0};
  Fatal("unknown quota mode: " + config_.quota_mode);
}

SmRate
ClusterRuntime::StaticShareForMode(const SmQuota& profiled) const
{
  return QuotaForMode(profiled).limit;
}

scheduler::PlacementRequest
ClusterRuntime::MakePlacement(const DeployedFunction& f,
                              const SmQuota& shard_quota, double shard_mem,
                              int shards) const
{
  scheduler::PlacementRequest req;
  req.function = f.id;
  req.type = f.spec.type;
  req.quota = shard_quota;
  req.mem_gb = shard_mem;
  req.gpus_needed = shards;
  req.large_model = f.model->family == models::ModelFamily::kLlm;
  req.affinity = f.spec.affinity;
  req.affinity.push_back(f.id);  // instances of the same function
  return req;
}

void
ClusterRuntime::AttachShards(runtime::Instance* inst,
                             const DeployedFunction& f,
                             const std::vector<GpuId>& gpus,
                             const SmQuota& shard_quota,
                             SmRate shard_static, double shard_mem,
                             int priority)
{
  std::vector<scheduler::ShardCommit> commits;
  for (std::size_t slot = 0; slot < gpus.size(); ++slot) {
    gpusim::Attachment att;
    att.client = inst;
    att.id = inst->client_id();
    att.slot = static_cast<int>(slot);
    att.type = f.spec.type;
    att.quota = shard_quota;
    att.static_share = shard_static;
    att.memory_gb = shard_mem;
    att.priority = priority;
    gpu_group_->Attach(gpus[slot], att);
    commits.push_back({gpus[slot], shard_quota, shard_mem});
  }
  state_.Commit(inst->client_id(), f.id, commits);
  max_active_gpus_ = std::max(max_active_gpus_, state_.ActiveGpuCount());
}

InstanceId
ClusterRuntime::LaunchInference(FunctionId fn, bool cold)
{
  DeployedFunction& f = function(fn);
  DILU_CHECK(f.spec.type == TaskType::kInference);
  const int shards = std::max(1, f.spec.shards);
  const SmQuota mode_quota = QuotaForMode(f.spec.quota);
  const SmQuota shard_quota{mode_quota.request / shards,
                            mode_quota.limit / shards};
  const double shard_mem = f.model->mem_gb_inference / shards;
  const auto placement =
      scheduler_->Place(MakePlacement(f, shard_quota, shard_mem, shards),
                        state_);
  if (!placement.ok) {
    DILU_WARN << "placement failed for function " << fn;
    return kInvalidInstance;
  }
  return LaunchInferenceOn(fn, placement.gpus, cold);
}

InstanceId
ClusterRuntime::LaunchInferenceOn(FunctionId fn,
                                  const std::vector<GpuId>& gpus,
                                  bool cold)
{
  DeployedFunction& f = function(fn);
  DILU_CHECK(f.spec.type == TaskType::kInference);
  const int shards = static_cast<int>(gpus.size());
  const SmQuota mode_quota = QuotaForMode(f.spec.quota);
  const SmQuota shard_quota{mode_quota.request / shards,
                            mode_quota.limit / shards};
  const SmRate shard_static = StaticShareForMode(f.spec.quota) / shards;
  const double shard_mem = f.model->mem_gb_inference / shards;

  const InstanceId id = NextInstanceId();
  TimeUs cold_duration = 0;
  if (cold) {
    const TimeUs base = fabric_
        ? FabricColdStart(*f.model, NodeOfGpu(gpus[0]), config_.warm_starts)
        : (config_.warm_starts ? config_.coldstart.WarmDuration(*f.model)
                               : config_.coldstart.Duration(*f.model));
    cold_duration = ScaledColdStart(base);
  }
  const TimeUs overhead =
      config_.sharing == "fastgs" ? config_.fastgs_overhead : 0;

  auto inst = std::make_unique<runtime::InferenceInstance>(
      id, fn, f.model, f.spec.ibs, &sim_, overhead);
  inst->set_shard_count(shards);
  inst->set_quota(shard_quota);
  inst->set_request_sink([this, fn](const workload::Request& r) {
    gateway_.OnRequestFinished(fn);
    metrics_.RecordRequest(fn, r);
    // Read before pruning: `r` lives in requests_, and the prune below
    // frees finished records — including, in the common FIFO case, the
    // one `r` refers to.
    const bool closed_loop = r.closed_loop;
    // The metrics hub has consumed the request; reclaim finished
    // records so week-long traces don't hold every request alive.
    PruneCompletedRequests();
    // A closed-loop client's completion continues its loop; open-loop
    // completions on the same function do not.
    if (closed_loop) ScheduleClosedLoopIssue(fn);
  });

  const int inf_priority = f.spec.priority < 0 ? 1 : f.spec.priority;
  AttachShards(inst.get(), f, gpus, shard_quota, shard_static, shard_mem,
               inf_priority);
  gateway_.AddInstance(fn, inst.get());
  inst->BeginColdStart(cold_duration);
  if (cold) {
    if (recovery_launch_) {
      metrics_.RecordRecoveryColdStart(fn);
      if (f.policy) f.policy->OnRecoveryLaunch();
    } else {
      metrics_.RecordColdStart(fn);
    }
  }

  InstanceRecord rec;
  rec.function = fn;
  rec.launched_at = sim_.now();
  // Reserved GPU time: static modes hold their static partition; Dilu
  // only guarantees (and bills) the request quota.
  rec.gpu_time_rate = config_.quota_mode == "dilu"
      ? mode_quota.request
      : shard_static * shards;
  rec.instance = std::move(inst);
  instances_[id] = std::move(rec);
  f.live_instances.push_back(id);
  return id;
}

bool
ClusterRuntime::ScaleInOne(FunctionId fn)
{
  DeployedFunction& f = function(fn);
  if (f.live_instances.size() <= 1) return false;
  // Terminate the least-loaded running instance.
  InstanceId victim = kInvalidInstance;
  std::size_t best_depth = std::numeric_limits<std::size_t>::max();
  for (InstanceId id : f.live_instances) {
    auto* inst = dynamic_cast<runtime::InferenceInstance*>(
        instances_.at(id).instance.get());
    DILU_CHECK(inst != nullptr);
    const std::size_t depth =
        inst->queue_depth() + (inst->batch_in_flight() ? 1 : 0);
    if (depth < best_depth) {
      best_depth = depth;
      victim = id;
    }
  }
  if (victim == kInvalidInstance) return false;
  gateway_.RemoveInstance(fn, victim);
  ReleaseInstance(victim);
  f.live_instances.erase(std::remove(f.live_instances.begin(),
                                     f.live_instances.end(), victim),
                         f.live_instances.end());
  return true;
}

bool
ClusterRuntime::StartTraining(FunctionId fn, bool cold)
{
  DeployedFunction& f = function(fn);
  DILU_CHECK(f.spec.type == TaskType::kTraining);
  const int workers = std::max(1, f.spec.workers);
  const SmQuota mode_quota = QuotaForMode(f.spec.quota);
  const double mem = f.model->mem_gb_training;

  // Place the workers one by one so each placement sees the residency
  // the previous one committed (workload affinity builds up).
  std::vector<GpuId> gpus;
  for (int w = 0; w < workers; ++w) {
    auto placement =
        scheduler_->Place(MakePlacement(f, mode_quota, mem, 1), state_);
    if (!placement.ok) {
      DILU_WARN << "training placement failed for function " << fn;
      // Release the holds committed for the earlier workers, or the
      // next attempt re-commits the same hold ids and panics.
      for (int h = 0; h < w; ++h) state_.Release(-1000 - h);
      return false;
    }
    gpus.push_back(placement.gpus[0]);
    // Temporarily commit a hold so the next worker sees it; released
    // and replaced by the real commit in StartTrainingOn.
    state_.Commit(-1000 - w, fn, {{placement.gpus[0], mode_quota, mem}});
  }
  for (int w = 0; w < workers; ++w) state_.Release(-1000 - w);
  return StartTrainingOn(fn, gpus, cold);
}

bool
ClusterRuntime::StartTrainingOn(FunctionId fn,
                                const std::vector<GpuId>& gpus, bool cold)
{
  DeployedFunction& f = function(fn);
  DILU_CHECK(f.spec.type == TaskType::kTraining);
  const int workers = std::max(1, f.spec.workers);
  DILU_CHECK(static_cast<int>(gpus.size()) == workers);
  const SmQuota mode_quota = QuotaForMode(f.spec.quota);
  const SmRate static_share = StaticShareForMode(f.spec.quota);
  const double mem = f.model->mem_gb_training;

  f.job = std::make_unique<runtime::TrainingJob>(
      fn, f.model, workers, &sim_, f.spec.target_iterations,
      f.resume_iterations);
  if (f.spec.checkpoint_every > 0) {
    f.job->set_checkpoint_policy(
        {f.spec.checkpoint_every, f.spec.checkpoint_save_cost});
  }
  f.job->set_on_checkpoint([this, fn](TimeUs pause) {
    metrics_.RecordCheckpoint(fn, pause);
  });
  f.job->set_on_finished([this, fn] {
    DeployedFunction& fd = function(fn);
    fd.job_completed_at = sim_.now();
    // The checkpoint baseline is consumed: a later fresh StartTraining
    // of this function must begin at iteration zero, not resume here.
    fd.resume_iterations = 0;
    for (InstanceId id : fd.live_instances) ReleaseInstance(id);
    fd.live_instances.clear();
  });

  WireJobFabric(f, gpus);

  TimeUs cold_duration = 0;
  if (cold) {
    // Training workers always pay the full image pull (no warm cache).
    const TimeUs base = fabric_
        ? FabricColdStart(*f.model, NodeOfGpu(gpus[0]), /*warm=*/false)
        : config_.coldstart.Duration(*f.model);
    cold_duration = ScaledColdStart(base);
  }
  for (int w = 0; w < workers; ++w) {
    const InstanceId id = NextInstanceId();
    auto worker = f.job->MakeWorker(id, w);
    worker->set_quota(mode_quota);
    const int train_priority = f.spec.priority < 0 ? 0 : f.spec.priority;
    AttachShards(worker.get(), f, {gpus[static_cast<std::size_t>(w)]},
                 mode_quota, static_share, mem, train_priority);
    worker->BeginColdStart(cold_duration);
    if (cold) {
      if (recovery_launch_) {
        metrics_.RecordRecoveryColdStart(fn);
      } else {
        metrics_.RecordColdStart(fn);
      }
    }

    InstanceRecord rec;
    rec.function = fn;
    rec.launched_at = sim_.now();
    rec.gpu_time_rate = config_.quota_mode == "dilu"
        ? mode_quota.request
        : static_share;
    rec.instance = std::move(worker);
    instances_[id] = std::move(rec);
    f.live_instances.push_back(id);
  }
  return true;
}

void
ClusterRuntime::ReleaseInstance(InstanceId id)
{
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  InstanceRecord& rec = it->second;
  if (rec.released) return;
  rec.instance->Terminate();
  gpu_group_->DetachEverywhere(id);
  state_.Release(id);
  metrics_.AddGpuTime(rec.gpu_time_rate
                      * ToSec(sim_.now() - rec.launched_at));
  rec.released = true;
}

void
ClusterRuntime::PruneCompletedRequests()
{
  // Requests complete roughly in arrival order (per-instance FIFO
  // batching), so dropping done records from the front keeps the deque
  // bounded by the outstanding window. The front blocks only while its
  // request is still in flight. Callers must not touch a pruned record
  // afterward: the metrics sink runs (and prunes) only after an
  // instance is completely done with the request pointer.
  while (!requests_.empty() && requests_.front().done) {
    requests_.pop_front();
  }
}

void
ClusterRuntime::ScheduleNextArrival(
    FunctionId fn, std::shared_ptr<workload::ArrivalProcess> proc,
    TimeUs until)
{
  const TimeUs gap = proc->NextGap();
  const TimeUs when = sim_.now() + std::max<TimeUs>(1, gap);
  if (when > until) return;
  sim_.Post(when, [this, fn, proc, until] {
    if (!IssueRequest(fn, /*closed_loop=*/false)) {
      DILU_DEBUG << "dropping request for function " << fn
                 << " (no instances)";
    }
    ScheduleNextArrival(fn, proc, until);
  });
}

bool
ClusterRuntime::IssueRequest(FunctionId fn, bool closed_loop)
{
  workload::Request& req = requests_.emplace_back();
  req.id = next_request_id_++;
  req.function = fn;
  req.arrival = sim_.now();
  req.closed_loop = closed_loop;
  if (gateway_.Dispatch(&req)) return true;
  // Only dispatched requests are retained: an instance holds the
  // pointer until completion marks it done (deque references survive
  // pushes and pops at either end). A refused request is still the
  // back record and dies here — keeping it would permanently stall
  // the prune cursor on a record that can never complete.
  requests_.pop_back();
  return false;
}

void
ClusterRuntime::AttachArrivals(
    FunctionId fn, std::unique_ptr<workload::ArrivalProcess> process,
    TimeUs until)
{
  std::shared_ptr<workload::ArrivalProcess> proc(std::move(process));
  ScheduleNextArrival(fn, proc, until);
}

void
ClusterRuntime::AttachClosedLoop(
    FunctionId fn, int clients,
    std::unique_ptr<workload::ArrivalProcess> think, TimeUs until)
{
  DILU_CHECK(clients >= 1);
  ClosedLoop& loop = closed_loops_[fn];
  loop.think = std::shared_ptr<workload::ArrivalProcess>(std::move(think));
  loop.until = until;
  // Each client starts with a think gap (staggered by the process
  // draws), then self-perpetuates through the completion / drop hooks.
  for (int c = 0; c < clients; ++c) ScheduleClosedLoopIssue(fn);
}

void
ClusterRuntime::ScheduleClosedLoopIssue(FunctionId fn)
{
  auto it = closed_loops_.find(fn);
  if (it == closed_loops_.end()) return;
  const TimeUs gap = std::max<TimeUs>(1, it->second.think->NextGap());
  const TimeUs when = sim_.now() + gap;
  if (when > it->second.until) return;  // client retires
  // A failed dispatch counts a drop, which re-fires the drop hook and
  // thereby schedules this client's next attempt — nothing to do here.
  sim_.Post(when, [this, fn] { IssueRequest(fn, /*closed_loop=*/true); });
}

void
ClusterRuntime::EnableAutoscaler(
    FunctionId fn, std::unique_ptr<scaling::HorizontalPolicy> policy)
{
  DeployedFunction& f = function(fn);
  f.policy = std::move(policy);
  sim_.SchedulePeriodic(sim_.now() + Sec(1), Sec(1),
                        [this, fn] { AutoscaleTick(fn); });
}

void
ClusterRuntime::AutoscaleTick(FunctionId fn)
{
  DeployedFunction& f = function(fn);
  if (!f.policy) return;
  const double rps = gateway_.PollArrivals(fn);
  const int current = static_cast<int>(f.live_instances.size());
  f.instance_count_series.emplace_back(sim_.now(), current);
  if (current == 0) return;
  // Degradation feeds the supply side of the scaler signal: an
  // instance on a degraded GPU serves only its capacity factor of the
  // profiled throughput, so the policy sees the derated mean and scales
  // out when stragglers eat real capacity.
  double capacity_sum = 0.0;
  for (InstanceId id : f.live_instances) {
    capacity_sum += state_.InstanceCapacityFactor(id);
  }
  const double effective_rps =
      f.spec.per_instance_rps * capacity_sum / current;
  const int desired = f.policy->Decide(rps, current, effective_rps);
  if (desired > current) {
    LaunchInference(fn, /*cold=*/true);
  } else if (desired < current) {
    ScaleInOne(fn);
  }
}

void
ClusterRuntime::SampleCluster()
{
  ClusterSample s;
  s.time = sim_.now();
  s.active_gpus = state_.ActiveGpuCount();
  s.sm_fragmentation = state_.SmFragmentation();
  s.mem_fragmentation = state_.MemoryFragmentation();
  double util = 0.0;
  int active = 0;
  for (const GpuId g : gpu_group_->live_gpus()) {
    const gpusim::Gpu& gpu = gpu_group_->gpu(g);
    if (gpu.occupied()) {
      ++active;
      util += gpu.used_share();
    }
  }
  s.avg_utilization = active == 0 ? 0.0 : util / active;
  s.schedulable_gpus = state_.SchedulableGpuCount();
  s.degraded_gpus = state_.DegradedGpuCount();
  s.effective_capacity = state_.EffectiveCapacity();
  metrics_.AddSample(s);
  if (fabric_) metrics_.AddFabricSample(fabric_->Sample(sim_.now()));
  max_active_gpus_ = std::max(max_active_gpus_, s.active_gpus);
}

void
ClusterRuntime::RunFor(TimeUs duration)
{
  sim_.RunFor(duration);
}

// --- fault injection & recovery ---------------------------------------

TimeUs
ClusterRuntime::ScaledColdStart(TimeUs base) const
{
  if (coldstart_scale_ == 1.0) return base;
  return static_cast<TimeUs>(static_cast<double>(base)
                             * coldstart_scale_);
}

NodeId
ClusterRuntime::NodeOfGpu(GpuId gpu) const
{
  DILU_CHECK(gpu >= 0 && config_.gpus_per_node > 0);
  return gpu / config_.gpus_per_node;
}

TimeUs
ClusterRuntime::FabricColdStart(const models::ModelProfile& model,
                                NodeId node, bool warm)
{
  DILU_CHECK(fabric_ != nullptr);
  const TimeUs now = sim_.now();
  TimeUs ready = now;
  if (!warm) {
    // Image pull: the registry NIC pushes the weights through the core
    // into the node — concurrent pulls contend on the registry uplink.
    ready = fabric_
                ->SubmitNetwork(fabric_->registry_node(), node,
                                model.param_gb, now)
                .done;
  }
  // Pulled (or node-cached) weights stream through node-local storage
  // before the runtime can map them.
  ready = fabric_->SubmitStorage(node, model.param_gb, ready).done;
  return config_.coldstart.container_base + (ready - now);
}

void
ClusterRuntime::WireJobFabric(DeployedFunction& f,
                              const std::vector<GpuId>& gpus)
{
  if (!fabric_ || !f.job) return;
  const FunctionId fn = f.id;
  const NodeId primary = NodeOfGpu(gpus[0]);
  // Checkpoint snapshots: params plus optimizer state, sequentially
  // written to the checkpoint store. The pause is the emergent
  // completion delay — FIFO queueing behind concurrent checkpointers
  // stretches it. An explicit save_cost pins the legacy constant
  // instead (the provider is only consulted when save_cost == 0).
  f.job->set_checkpoint_cost_fn([this, fn, primary] {
    const DeployedFunction& fd = function(fn);
    const double gb = fd.model->param_gb * kCheckpointStateFactor;
    const fabric::TransferResult r =
        fabric_->SubmitStorage(primary, gb, sim_.now());
    return std::max<TimeUs>(0, r.done - sim_.now());
  });
  // Gradient sync: a ring all-reduce over the distinct worker nodes.
  // Single-node jobs keep the analytic comm phase (NVLink-class sync
  // never touches the fabric), and the fabric can only lengthen the
  // phase beyond the calibrated baseline, never shorten it.
  std::vector<NodeId> ring;
  ring.reserve(gpus.size());
  for (GpuId g : gpus) ring.push_back(NodeOfGpu(g));
  std::sort(ring.begin(), ring.end());
  ring.erase(std::unique(ring.begin(), ring.end()), ring.end());
  if (ring.size() < 2) return;
  f.job->set_comm_phase_fn([this, fn, ring] {
    const DeployedFunction& fd = function(fn);
    const double k = static_cast<double>(ring.size());
    const double gb = 2.0 * (k - 1.0) / k * fd.model->param_gb;
    TimeUs done = sim_.now();
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const NodeId src = ring[i];
      const NodeId dst = ring[(i + 1) % ring.size()];
      done = std::max(
          done, fabric_->SubmitNetwork(src, dst, gb, sim_.now()).done);
    }
    return std::max(models::TrainingCommPhase(*fd.model),
                    done - sim_.now());
  });
}

void
ClusterRuntime::set_coldstart_scale(double scale)
{
  DILU_CHECK(scale > 0.0);
  coldstart_scale_ = scale;
}

GpuHealth
ClusterRuntime::gpu_health(GpuId gpu) const
{
  return state_.health(gpu);
}

const Node&
ClusterRuntime::node(NodeId id) const
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

void
ClusterRuntime::KillInstance(InstanceId id,
                             std::vector<workload::Request*>* orphans)
{
  auto it = instances_.find(id);
  if (it == instances_.end() || it->second.released) return;
  InstanceRecord& rec = it->second;
  DeployedFunction& f = function(rec.function);
  DILU_CHECK(f.spec.type == TaskType::kInference);
  auto* inst =
      dynamic_cast<runtime::InferenceInstance*>(rec.instance.get());
  DILU_CHECK(inst != nullptr);
  // Surrender queued + in-flight work unfinished, then tear down.
  inst->FailAndDrain(orphans);
  gateway_.RemoveInstance(f.id, id);
  ReleaseInstance(id);
  f.live_instances.erase(std::remove(f.live_instances.begin(),
                                     f.live_instances.end(), id),
                         f.live_instances.end());
}

void
ClusterRuntime::AbortTraining(DeployedFunction& f)
{
  if (!f.job) return;
  // Progress past the last checkpoint is lost; the snapshot survives
  // as the resume baseline for the restart.
  const std::int64_t done = f.job->stats().iterations_completed;
  const std::int64_t safe = f.job->checkpointed_iterations();
  f.resume_iterations = safe;
  metrics_.RecordTrainingRestart(f.id, done - safe);
  f.job->Abort();
  // A pending communication-phase event may still hold the job pointer:
  // park the object instead of destroying it (see retired_jobs_).
  retired_jobs_.push_back(std::move(f.job));
  for (InstanceId id : f.live_instances) ReleaseInstance(id);
  f.live_instances.clear();
}

double
ClusterRuntime::RecoveryDemand(FunctionId fn) const
{
  const DeployedFunction& f = function(fn);
  const SmQuota q = QuotaForMode(f.spec.quota);
  if (f.spec.type == TaskType::kTraining) {
    // A training restart re-places the whole job.
    return q.request * std::max(1, f.spec.workers);
  }
  return q.request;
}

void
ClusterRuntime::OrderRecoveryBatch(std::vector<FunctionId>* needs) const
{
  if (config_.recovery != "joint" || needs->size() < 2) return;
  std::stable_sort(
      needs->begin(), needs->end(), [this](FunctionId a, FunctionId b) {
        const double da = RecoveryDemand(a);
        const double db = RecoveryDemand(b);
        if (da != db) return da > db;
        const DeployedFunction& fa = function(a);
        const DeployedFunction& fb = function(b);
        const double ma = fa.spec.type == TaskType::kTraining
            ? fa.model->mem_gb_training
            : fa.model->mem_gb_inference;
        const double mb = fb.spec.type == TaskType::kTraining
            ? fb.model->mem_gb_training
            : fb.model->mem_gb_inference;
        if (ma != mb) return ma > mb;
        return a < b;
      });
}

bool
ClusterRuntime::LaunchRecovery(FunctionId fn)
{
  DeployedFunction& f = function(fn);
  if (f.spec.type == TaskType::kTraining) {
    // Already healed by an earlier retry (or completed meanwhile).
    if (f.job_completed_at >= 0) return true;
    if (f.job && !f.live_instances.empty()) return true;
    recovery_launch_ = true;
    const bool ok = StartTraining(fn, /*cold=*/true);
    recovery_launch_ = false;
    return ok;
  }
  recovery_launch_ = true;
  const bool ok = LaunchInference(fn, /*cold=*/true) != kInvalidInstance;
  recovery_launch_ = false;
  return ok;
}

TimeUs
ClusterRuntime::RecoveryRetryDelay()
{
  TimeUs delay = config_.recovery_retry << recovery_backoff_shift_;
  // The first retry keeps the exact configured cadence; escalated
  // retries add seeded jitter so simultaneous starved clusters in a
  // parameter sweep don't retry in lockstep.
  if (recovery_backoff_shift_ > 0) {
    delay += static_cast<TimeUs>(
        rng_.Uniform(0.0, 0.25 * static_cast<double>(delay)));
  }
  return delay;
}

void
ClusterRuntime::DeferRecovery(FunctionId fn)
{
  pending_recovery_.push_back(fn);
  if (!recovery_task_armed_) {
    recovery_task_armed_ = true;
    const TimeUs delay = RecoveryRetryDelay();
    recovery_task_ = sim_.SchedulePeriodic(
        sim_.now() + delay, delay,
        [this] { RetryPendingRecoveries(/*timer_fired=*/true); });
  }
}

void
ClusterRuntime::RetryPendingRecoveries(bool timer_fired)
{
  // The whole backlog is one joint batch: re-sorted best-fit-decreasing
  // each retry so the launches probe freed capacity largest-first
  // (under "greedy", FIFO order is kept).
  std::vector<FunctionId> batch(pending_recovery_.begin(),
                                pending_recovery_.end());
  pending_recovery_.clear();
  OrderRecoveryBatch(&batch);
  for (FunctionId fn : batch) {
    if (!LaunchRecovery(fn)) pending_recovery_.push_back(fn);
  }
  if (pending_recovery_.empty()) {
    recovery_backoff_shift_ = 0;
    recovery_starved_reported_ = false;
    if (recovery_task_armed_) {
      sim_.StopPeriodic(recovery_task_);
      recovery_task_armed_ = false;
    }
    return;
  }
  if (!timer_fired) return;
  // Still starved after a timer-driven retry: escalate the backoff and
  // re-arm at the longer delay. Once the backoff saturates, report the
  // starvation (once per episode) instead of spinning silently.
  if (recovery_task_armed_) {
    sim_.StopPeriodic(recovery_task_);
    recovery_task_armed_ = false;
  }
  if (recovery_backoff_shift_ < kRecoveryBackoffMaxShift) {
    ++recovery_backoff_shift_;
  } else if (!recovery_starved_reported_) {
    recovery_starved_reported_ = true;
    metrics_.RecordFault(
        sim_.now(), "recovery_starved",
        "pending=" + std::to_string(pending_recovery_.size()) + " retry_s="
            + std::to_string(
                ToSec(config_.recovery_retry << recovery_backoff_shift_)));
  }
  recovery_task_armed_ = true;
  const TimeUs delay = RecoveryRetryDelay();
  recovery_task_ = sim_.SchedulePeriodic(
      sim_.now() + delay, delay,
      [this] { RetryPendingRecoveries(/*timer_fired=*/true); });
}

int
ClusterRuntime::FailGpus(const std::vector<GpuId>& gpus, const char* kind,
                         const std::string& target)
{
  // Mark every device down before any teardown so recovery placements
  // triggered below can never land on a GPU failing in the same event.
  std::vector<GpuId> newly_down;
  for (GpuId g : gpus) {
    if (state_.health(g) == GpuHealth::kDown) continue;
    state_.SetHealth(g, GpuHealth::kDown);
    newly_down.push_back(g);
  }
  if (newly_down.empty()) return 0;

  std::vector<InstanceId> victims;
  for (GpuId g : newly_down) {
    for (const gpusim::Attachment& att : gpu_group_->gpu(g).attachments()) {
      victims.push_back(att.id);
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()),
                victims.end());

  int displaced = 0;
  std::vector<FunctionId> needs;  // one entry per replacement to launch
  std::vector<workload::Request*> orphans;
  for (InstanceId id : victims) {
    auto it = instances_.find(id);
    // Already gone: released earlier, or a sibling worker's job abort
    // cascaded through this one.
    if (it == instances_.end() || it->second.released) continue;
    const FunctionId fn = it->second.function;
    DeployedFunction& f = function(fn);
    ++displaced;
    if (f.spec.type == TaskType::kInference) {
      KillInstance(id, &orphans);
    } else {
      AbortTraining(f);  // lockstep: one lost worker fails the job
    }
    needs.push_back(fn);
  }
  metrics_.RecordFault(sim_.now(), kind,
                       target + " displaced="
                           + std::to_string(displaced));
  // Joint bin-packing: the fault's whole displaced batch is placed
  // together, best-fit-decreasing, instead of greedily in victim order.
  OrderRecoveryBatch(&needs);
  for (FunctionId fn : needs) {
    if (!LaunchRecovery(fn)) DeferRecovery(fn);
  }
  // Re-dispatch the surrendered requests only now, after replacements
  // exist: when the fault killed a function's last instance, its queue
  // re-homes behind the recovery cold start instead of dropping.
  for (workload::Request* r : orphans) gateway_.Redispatch(r);
  return displaced;
}

int
ClusterRuntime::FailGpu(GpuId gpu)
{
  return FailGpus({gpu}, "gpu_fail", "gpu=" + std::to_string(gpu));
}

void
ClusterRuntime::HealGpu(GpuId gpu)
{
  state_.SetHealth(gpu, GpuHealth::kUp);  // also resets capacity
  gpu_group_->gpu(gpu).set_compute_capacity(1.0);
}

void
ClusterRuntime::RecoverGpu(GpuId gpu)
{
  const GpuHealth h = state_.health(gpu);
  if (h != GpuHealth::kDown && h != GpuHealth::kDegraded) return;
  HealGpu(gpu);
  metrics_.RecordFault(sim_.now(), "gpu_recover",
                       "gpu=" + std::to_string(gpu));
  if (!pending_recovery_.empty()) RetryPendingRecoveries();
}

void
ClusterRuntime::DegradeToCapacity(GpuId gpu, double capacity,
                                  const char* kind,
                                  const std::string& detail)
{
  const GpuHealth h = state_.health(gpu);
  if (h != GpuHealth::kUp && h != GpuHealth::kDegraded) {
    DILU_WARN << kind << " ignored: gpu " << gpu << " is "
              << ToString(h);
    return;
  }
  state_.SetDegraded(gpu, capacity);
  gpu_group_->gpu(gpu).set_compute_capacity(capacity);
  metrics_.RecordFault(sim_.now(), kind,
                       "gpu=" + std::to_string(gpu) + " " + detail);
}

void
ClusterRuntime::DegradeGpu(GpuId gpu, double capacity)
{
  DILU_CHECK(capacity > 0.0 && capacity < 1.0);
  DegradeToCapacity(gpu, capacity, "gpu_degrade",
                    "capacity=" + std::to_string(capacity));
}

void
ClusterRuntime::StraggleGpu(GpuId gpu, double factor)
{
  DILU_CHECK(factor > 1.0);
  DegradeToCapacity(gpu, 1.0 / factor, "gpu_straggle",
                    "x" + std::to_string(factor));
}

void
ClusterRuntime::SetCheckpointPolicy(FunctionId fn, TimeUs every,
                                    TimeUs save_cost)
{
  DILU_CHECK(every >= 0);
  DILU_CHECK(save_cost >= 0);
  DeployedFunction& f = function(fn);
  f.spec.checkpoint_every = every;
  f.spec.checkpoint_save_cost = save_cost;
  if (f.job) f.job->set_checkpoint_policy({every, save_cost});
}

int
ClusterRuntime::FailNode(NodeId node_id)
{
  DILU_CHECK(node_id >= 0
             && static_cast<std::size_t>(node_id) < nodes_.size());
  Node& n = nodes_[static_cast<std::size_t>(node_id)];
  n.health = GpuHealth::kDown;
  return FailGpus(n.gpus, "node_fail",
                  "node=" + std::to_string(node_id));
}

void
ClusterRuntime::RecoverNode(NodeId node_id)
{
  DILU_CHECK(node_id >= 0
             && static_cast<std::size_t>(node_id) < nodes_.size());
  Node& n = nodes_[static_cast<std::size_t>(node_id)];
  if (n.health == GpuHealth::kUp) return;
  n.health = GpuHealth::kUp;
  for (GpuId g : n.gpus) {
    if (state_.health(g) != GpuHealth::kUp) HealGpu(g);
  }
  metrics_.RecordFault(sim_.now(), "node_recover",
                       "node=" + std::to_string(node_id));
  if (!pending_recovery_.empty()) RetryPendingRecoveries();
}

int
ClusterRuntime::DrainNode(NodeId node_id)
{
  DILU_CHECK(node_id >= 0
             && static_cast<std::size_t>(node_id) < nodes_.size());
  Node& n = nodes_[static_cast<std::size_t>(node_id)];
  for (GpuId g : n.gpus) {
    const GpuHealth h = state_.health(g);
    if (h == GpuHealth::kUp || h == GpuHealth::kDegraded) {
      state_.SetHealth(g, GpuHealth::kDraining);
    }
  }
  n.health = GpuHealth::kDraining;

  std::vector<InstanceId> residents;
  for (GpuId g : n.gpus) {
    for (const gpusim::Attachment& att : gpu_group_->gpu(g).attachments()) {
      residents.push_back(att.id);
    }
  }
  std::sort(residents.begin(), residents.end());
  residents.erase(std::unique(residents.begin(), residents.end()),
                  residents.end());

  int migrated = 0;
  for (InstanceId id : residents) {
    auto it = instances_.find(id);
    if (it == instances_.end() || it->second.released) continue;
    const FunctionId fn = it->second.function;
    DeployedFunction& f = function(fn);
    // Training workers are not migrated: the drain only blocks new
    // placements; lockstep jobs run to completion where they are.
    if (f.spec.type != TaskType::kInference) continue;
    // Replacement first, then graceful removal — the function never
    // loses capacity it had. If no replacement fits, the instance
    // stays put (best-effort drain). The placement is done explicitly
    // (instead of through LaunchInference) so the fabric path below
    // knows the destination node of the state transfer.
    const int shards = std::max(1, f.spec.shards);
    const SmQuota mode_quota = QuotaForMode(f.spec.quota);
    const SmQuota shard_quota{mode_quota.request / shards,
                              mode_quota.limit / shards};
    const double shard_mem = f.model->mem_gb_inference / shards;
    const auto placement = scheduler_->Place(
        MakePlacement(f, shard_quota, shard_mem, shards), state_);
    if (!placement.ok) {
      DILU_WARN << "placement failed for function " << fn;
      continue;
    }
    recovery_launch_ = true;
    const InstanceId repl =
        LaunchInferenceOn(fn, placement.gpus, /*cold=*/true);
    recovery_launch_ = false;
    if (repl == kInvalidInstance) continue;
    ++migrated;
    if (fabric_) {
      // KV/session state migrates through the network tier; the
      // original keeps serving until the transfer lands, so the drain
      // duration is emergent from fabric contention.
      const fabric::TransferResult xfer = fabric_->SubmitNetwork(
          node_id, NodeOfGpu(placement.gpus[0]), f.model->mem_gb_inference,
          sim_.now());
      sim_.Post(xfer.done, [this, fn, id] {
        FinishDrainMigration(fn, id);
      });
      continue;
    }
    gateway_.RemoveInstance(fn, id);  // re-homes its queued requests
    ReleaseInstance(id);              // in-flight batch flushes
    f.live_instances.erase(std::remove(f.live_instances.begin(),
                                       f.live_instances.end(), id),
                           f.live_instances.end());
  }
  metrics_.RecordFault(sim_.now(), "node_drain",
                       "node=" + std::to_string(node_id) + " migrated="
                           + std::to_string(migrated));
  return migrated;
}

void
ClusterRuntime::FinishDrainMigration(FunctionId fn, InstanceId id)
{
  // The node may have failed outright mid-drain, in which case the
  // instance is already gone and the migration transfer was moot.
  auto it = instances_.find(id);
  if (it == instances_.end() || it->second.released) return;
  DeployedFunction& f = function(fn);
  gateway_.RemoveInstance(fn, id);  // re-homes its queued requests
  ReleaseInstance(id);              // in-flight batch flushes
  f.live_instances.erase(std::remove(f.live_instances.begin(),
                                     f.live_instances.end(), id),
                         f.live_instances.end());
}

void
ClusterRuntime::UndrainNode(NodeId node_id)
{
  DILU_CHECK(node_id >= 0
             && static_cast<std::size_t>(node_id) < nodes_.size());
  Node& n = nodes_[static_cast<std::size_t>(node_id)];
  if (n.health != GpuHealth::kDraining) return;
  n.health = GpuHealth::kUp;
  for (GpuId g : n.gpus) {
    // Undrain returns the device whole: a degradation that preceded
    // the drain is considered repaired by the maintenance.
    if (state_.health(g) == GpuHealth::kDraining) HealGpu(g);
  }
  metrics_.RecordFault(sim_.now(), "node_undrain",
                       "node=" + std::to_string(node_id));
  if (!pending_recovery_.empty()) RetryPendingRecoveries();
}

DeployedFunction&
ClusterRuntime::function(FunctionId fn)
{
  auto it = functions_.find(fn);
  DILU_CHECK(it != functions_.end());
  return it->second;
}

const DeployedFunction&
ClusterRuntime::function(FunctionId fn) const
{
  auto it = functions_.find(fn);
  DILU_CHECK(it != functions_.end());
  return it->second;
}

std::vector<FunctionId>
ClusterRuntime::DeployedFunctions() const
{
  std::vector<FunctionId> ids;
  ids.reserve(functions_.size());
  for (const auto& [id, f] : functions_) ids.push_back(id);
  return ids;
}

runtime::Instance*
ClusterRuntime::instance(InstanceId id)
{
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : it->second.instance.get();
}

int
ClusterRuntime::DeployedInstanceCount(FunctionId fn) const
{
  return static_cast<int>(function(fn).live_instances.size());
}

double
ClusterRuntime::TrainingThroughputUnits(FunctionId fn) const
{
  const DeployedFunction& f = function(fn);
  if (!f.job) return 0.0;
  return f.job->ThroughputUnits(sim_.now());
}

TimeUs
ClusterRuntime::TrainingJct(FunctionId fn) const
{
  const DeployedFunction& f = function(fn);
  if (f.job_completed_at < 0) return -1;
  return f.job_completed_at - f.submitted_at;
}

}  // namespace dilu::cluster
