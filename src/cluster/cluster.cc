#include "cluster/cluster.h"

#include <algorithm>
#include <initializer_list>
#include <limits>

#include "baselines/arbiters.h"
#include "common/logging.h"
#include "models/cost_model.h"
#include "rckm/token_manager.h"
#include "scaling/coldstart.h"
#include "scheduler/baseline_schedulers.h"

namespace dilu::cluster {
namespace {

/** Base cadence of the deferred-recovery retry timer. */
constexpr TimeUs kRecoveryRetry = Sec(1);

/**
 * Deferred-recovery backoff ceiling: the retry delay doubles from
 * kRecoveryRetry up to kRecoveryRetry << 5 (32 s), after which the
 * runtime logs a `recovery_starved` fault record, carrying that
 * escalated cadence, instead of escalating further.
 */
constexpr int kRecoveryBackoffMaxShift = 5;

/**
 * Checkpoint snapshot size relative to the model's parameters: params
 * plus optimizer moments (the Adam-style 2x state), written
 * sequentially to the checkpoint store when the fabric is enabled.
 */
constexpr double kCheckpointStateFactor = 3.0;

enum class Sharing { kDilu, kStatic, kTgs, kFastGs };
enum class SchedulerKind { kDilu, kExclusive, kStatic };

/**
 * The policy `name` names: its position among `names`, which list the
 * enum's values in order. Fatal ("unknown <what>: <name>") otherwise.
 */
template <typename Kind>
Kind
Resolve(const std::string& name, std::initializer_list<const char*> names,
        const char* what)
{
  int i = 0;
  for (const char* n : names) {
    if (name == n) return static_cast<Kind>(i);
    ++i;
  }
  Fatal(std::string("unknown ") + what + ": " + name);
}

gpusim::ArbiterFactory
MakeArbiterFactory(Sharing sharing, double max_tokens)
{
  switch (sharing) {
    case Sharing::kDilu:
      return [max_tokens](GpuId) {
        return std::make_unique<rckm::DiluArbiter>(max_tokens);
      };
    case Sharing::kStatic:
      return [](GpuId) { return std::make_unique<gpusim::StaticArbiter>(); };
    case Sharing::kTgs:
      return [](GpuId) { return std::make_unique<baselines::TgsArbiter>(); };
    case Sharing::kFastGs:
      break;
  }
  return [](GpuId) { return std::make_unique<baselines::FastGsArbiter>(); };
}

std::unique_ptr<scheduler::Scheduler>
MakeScheduler(SchedulerKind kind, const ClusterConfig& config)
{
  switch (kind) {
    case SchedulerKind::kDilu: {
      scheduler::DiluSchedulerConfig dilu;  // the paper's gamma, 1.5
      dilu.workload_affinity = config.workload_affinity;
      dilu.resource_complementarity = config.resource_complementarity;
      return std::make_unique<scheduler::DiluScheduler>(dilu);
    }
    case SchedulerKind::kExclusive:
      return std::make_unique<scheduler::ExclusiveScheduler>();
    case SchedulerKind::kStatic:
      break;
  }
  return std::make_unique<scheduler::StaticQuotaScheduler>(
      "static-" + config.quota_mode);
}

/** Hold ids of placed-but-not-started training workers (negative). */
constexpr InstanceId kHoldId = -1000;

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
    : config_(std::move(config)),
      gateway_(&sim_, config_.seed),
      rng_(config_.seed)
{
  const auto sharing = Resolve<Sharing>(
      config_.sharing, {"dilu", "static", "tgs", "fastgs"}, "sharing mode");
  const auto scheduler = Resolve<SchedulerKind>(
      config_.scheduler, {"dilu", "exclusive", "static"}, "scheduler mode");
  quota_mode_ = Resolve<QuotaMode>(
      config_.quota_mode, {"dilu", "limit", "request", "full"}, "quota mode");
  joint_recovery_ = Resolve<int>(config_.recovery, {"joint", "greedy"},
                                 "recovery mode") == 0;
  if (sharing == Sharing::kFastGs) {
    inference_overhead_ = baselines::kFastGsIterationOverhead;
  }
  if (config_.fabric.enabled) {
    // The fabric's posting-jitter stream derives from the cluster seed
    // so `--seed` re-keys it with everything else.
    fabric_ = std::make_unique<fabric::FabricPlane>(
        config_.fabric, config_.nodes,
        config_.seed * 0x9E3779B97F4A7C15ull + 0xFABull);
  }
  gpu_group_ = std::make_unique<gpusim::GpuGroup>(
      &sim_, MakeArbiterFactory(sharing, config_.max_tokens));
  scheduler_ = MakeScheduler(scheduler, config_);
  gateway_.set_metrics(&metrics_);
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
      const GpuId gpu = gpu_group_->AddGpu(kGpuMemoryGb);
      const GpuId mirrored = state_.AddGpu(n);
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
ClusterRuntime::ProfileSpec(core::FunctionSpec* spec)
{
  const models::ModelProfile& m = models::GetModel(spec->model);
  if (spec->type == TaskType::kInference) {
    if (spec->ibs <= 0 || spec->quota.request <= 0.0) {
      const profiler::InferenceProfile& p = profiles_.Inference(m);
      if (spec->ibs <= 0) spec->ibs = p.ibs;
      if (spec->quota.request <= 0.0) spec->quota = p.quota;
    }
    if (spec->per_instance_rps <= 0.0) {
      spec->per_instance_rps = models::InferenceThroughput(
          m, spec->ibs, spec->quota.request);
    }
  } else {
    if (spec->quota.request <= 0.0) {
      spec->quota = profiles_.Training(m).quota;
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
  switch (quota_mode_) {
    case QuotaMode::kLimit: return {profiled.limit, profiled.limit};
    case QuotaMode::kRequest: return {profiled.request, profiled.request};
    case QuotaMode::kFull: return {1.0, 1.0};
    case QuotaMode::kDilu: break;
  }
  return profiled;
}

bool
ClusterRuntime::Place(DeployedFunction& f, const SmQuota& quota,
                      double mem_gb, int shards, int units,
                      std::vector<GpuId>* gpus)
{
  scheduler::PlacementRequest req;
  req.function = f.id;
  req.type = f.spec.type;
  req.quota = quota;
  req.mem_gb = mem_gb;
  req.gpus_needed = shards;
  req.large_model = f.model->family == models::ModelFamily::kLlm;
  req.affinity = f.spec.affinity;
  req.affinity.push_back(f.id);  // instances of the same function
  // Each training worker's hold lets the next placement see it
  // (workload affinity builds up); Launch commits the real instances.
  const bool hold = f.spec.type == TaskType::kTraining;
  int placed = 0;
  for (; placed < units; ++placed) {
    const auto placement = scheduler_->Place(req, state_);
    if (!placement.ok) break;
    gpus->insert(gpus->end(), placement.gpus.begin(), placement.gpus.end());
    if (hold) {
      state_.Commit(kHoldId - placed, f.id,
                    {{placement.gpus[0], quota, mem_gb}});
    }
  }
  // Release every hold, also after a failure: a later attempt re-commits
  // the same hold ids.
  if (hold) {
    for (int h = 0; h < placed; ++h) state_.Release(kHoldId - h);
  }
  const bool ok = placed == units;
  if (!ok && !f.placement_failing) {
    DILU_WARN << "placement failed for function " << f.id;
  }
  f.placement_failing = !ok;
  return ok;
}

void
ClusterRuntime::AttachShards(runtime::Instance* inst,
                             const DeployedFunction& f,
                             const std::vector<GpuId>& gpus, int first,
                             int shards, const SmQuota& quota,
                             double mem_gb, int priority)
{
  std::vector<scheduler::ShardCommit> commits;
  for (int slot = 0; slot < shards; ++slot) {
    const GpuId gpu = gpus[static_cast<std::size_t>(first + slot)];
    gpusim::Attachment att;
    att.client = inst;
    att.id = inst->client_id();
    att.slot = slot;
    att.type = f.spec.type;
    att.quota = quota;
    att.memory_gb = mem_gb;
    att.priority = priority;
    gpu_group_->Attach(gpu, att);
    commits.push_back({gpu, quota, mem_gb});
  }
  state_.Commit(inst->client_id(), f.id, commits);
  max_active_gpus_ = std::max(max_active_gpus_, state_.ActiveGpuCount());
}

void
ClusterRuntime::NewJob(DeployedFunction& f, const std::vector<GpuId>& gpus)
{
  const FunctionId fn = f.id;
  f.job = std::make_unique<runtime::TrainingJob>(
      fn, f.model, std::max(1, f.spec.workers), &sim_,
      f.spec.target_iterations, f.resume_iterations);
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
}

InstanceId
ClusterRuntime::Launch(FunctionId fn, Start start, std::vector<GpuId>* gpus)
{
  DeployedFunction& f = function(fn);
  const bool training = f.spec.type == TaskType::kTraining;
  const int units = training ? std::max(1, f.spec.workers) : 1;
  const int shards = training ? 1
      : gpus->empty() ? std::max(1, f.spec.shards)
                      : static_cast<int>(gpus->size());
  const SmQuota mode = QuotaForMode(f.spec.quota);
  const SmQuota quota{mode.request / shards, mode.limit / shards};
  const double mem_gb = (training ? f.model->mem_gb_training
                                  : f.model->mem_gb_inference)
      / shards;
  if (gpus->empty() && !Place(f, quota, mem_gb, shards, units, gpus)) {
    return kInvalidInstance;
  }
  DILU_CHECK(static_cast<int>(gpus->size()) == units * shards);
  if (training) NewJob(f, *gpus);

  TimeUs cold = 0;
  if (start != Start::kWarm) {
    // Training workers always pay the full image pull (no warm cache).
    const bool cached = config_.warm_starts && !training;
    const TimeUs base = fabric_
        ? FabricColdStart(*f.model, NodeOfGpu((*gpus)[0]), cached)
        : (cached ? scaling::WarmDuration(*f.model)
                  : scaling::ColdDuration(*f.model));
    cold = ScaledColdStart(base);
  }
  // Reserved GPU time: static modes hold their static partition; Dilu
  // only guarantees (and bills) the request quota.
  const double gpu_time_rate = quota_mode_ == QuotaMode::kDilu
      ? mode.request
      : quota.limit * shards;
  const int priority = f.spec.priority >= 0 ? f.spec.priority
                                            : (training ? 0 : 1);

  InstanceId first = kInvalidInstance;
  for (int u = 0; u < units; ++u) {
    const InstanceId id = NextInstanceId();
    std::unique_ptr<runtime::Instance> inst;
    if (training) {
      inst = f.job->MakeWorker(id, u);
    } else {
      auto inference = std::make_unique<runtime::InferenceInstance>(
          id, fn, f.model, f.spec.ibs, &sim_, inference_overhead_);
      inference->set_shard_count(shards);
      inference->set_request_sink([this, fn](const workload::Request& r) {
        gateway_.OnRequestFinished(fn);
        metrics_.RecordRequest(fn, r);
        // Read before pruning: `r` lives in requests_, and the prune
        // below frees finished records — including, in the common FIFO
        // case, the one `r` refers to.
        const bool closed_loop = r.closed_loop;
        // The metrics hub has consumed the request; reclaim finished
        // records so week-long traces don't hold every request alive.
        PruneCompletedRequests();
        // A closed-loop client's completion continues its loop;
        // open-loop completions on the same function do not.
        if (closed_loop) ScheduleClosedLoopIssue(fn);
      });
      inst = std::move(inference);
    }
    inst->set_quota(quota);
    AttachShards(inst.get(), f, *gpus, u * shards, shards, quota, mem_gb,
                 priority);
    if (!training) {
      gateway_.AddInstance(
          fn, static_cast<runtime::InferenceInstance*>(inst.get()));
    }
    inst->BeginColdStart(cold);
    if (start == Start::kRecovery) {
      metrics_.RecordRecoveryColdStart(fn);
    } else if (start == Start::kDemand) {
      metrics_.RecordColdStart(fn);
    }
    InstanceRecord& rec = instances_[id];
    rec.instance = std::move(inst);
    rec.function = fn;
    rec.launched_at = sim_.now();
    rec.gpu_time_rate = gpu_time_rate;
    f.live_instances.push_back(id);
    if (u == 0) first = id;
  }
  if (start == Start::kRecovery && !training && f.policy) {
    f.policy->OnRecoveryLaunch();
  }
  return first;
}

InstanceId
ClusterRuntime::LaunchInference(FunctionId fn, bool cold)
{
  DILU_CHECK(function(fn).spec.type == TaskType::kInference);
  std::vector<GpuId> gpus;
  return Launch(fn, cold ? Start::kDemand : Start::kWarm, &gpus);
}

InstanceId
ClusterRuntime::LaunchInferenceOn(FunctionId fn,
                                  const std::vector<GpuId>& gpus,
                                  bool cold)
{
  DILU_CHECK(function(fn).spec.type == TaskType::kInference);
  DILU_CHECK(!gpus.empty());
  std::vector<GpuId> on = gpus;
  return Launch(fn, cold ? Start::kDemand : Start::kWarm, &on);
}

bool
ClusterRuntime::StartTraining(FunctionId fn, bool cold)
{
  DILU_CHECK(function(fn).spec.type == TaskType::kTraining);
  std::vector<GpuId> gpus;
  return Launch(fn, cold ? Start::kDemand : Start::kWarm, &gpus)
      != kInvalidInstance;
}

bool
ClusterRuntime::StartTrainingOn(FunctionId fn,
                                const std::vector<GpuId>& gpus, bool cold)
{
  DILU_CHECK(function(fn).spec.type == TaskType::kTraining);
  DILU_CHECK(!gpus.empty());
  std::vector<GpuId> on = gpus;
  return Launch(fn, cold ? Start::kDemand : Start::kWarm, &on)
      != kInvalidInstance;
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
  Retire(victim);
  return true;
}

void
ClusterRuntime::Retire(InstanceId id)
{
  const InstanceRecord* rec = LiveRecord(id);
  if (rec == nullptr) return;
  DeployedFunction& f = function(rec->function);
  gateway_.RemoveInstance(f.id, id);  // re-homes its queued requests
  ReleaseInstance(id);                // an in-flight batch flushes
  f.live_instances.erase(std::remove(f.live_instances.begin(),
                                     f.live_instances.end(), id),
                         f.live_instances.end());
}

ClusterRuntime::InstanceRecord*
ClusterRuntime::LiveRecord(InstanceId id)
{
  auto it = instances_.find(id);
  if (it == instances_.end() || it->second.released) return nullptr;
  return &it->second;
}

std::vector<InstanceId>
ClusterRuntime::ResidentInstances(const std::vector<GpuId>& gpus) const
{
  std::vector<InstanceId> ids;
  for (GpuId g : gpus) {
    for (const gpusim::Attachment& att : gpu_group_->gpu(g).attachments()) {
      ids.push_back(att.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void
ClusterRuntime::ReleaseInstance(InstanceId id)
{
  InstanceRecord* rec = LiveRecord(id);
  if (rec == nullptr) return;
  rec->instance->Terminate();
  gpu_group_->DetachEverywhere(id);
  state_.Release(id);
  metrics_.AddGpuTime(rec->gpu_time_rate
                      * ToSec(sim_.now() - rec->launched_at));
  rec->released = true;
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
ClusterRuntime::ScheduleNext(std::size_t s)
{
  Stream& stream = streams_[s];
  const TimeUs when =
      sim_.now() + std::max<TimeUs>(1, stream.gaps->NextGap());
  if (when > stream.until) return;
  if (!stream.closed_loop) {
    sim_.PostSource(stream.source, when);
    return;
  }
  // A failed closed-loop dispatch counts a drop, which re-fires the
  // drop hook and thereby schedules the client's next attempt.
  sim_.Post(when, [this, s] { IssueRequest(streams_[s].fn, true); });
}

void
ClusterRuntime::IssueRequest(FunctionId fn, bool closed_loop)
{
  workload::Request& req = requests_.emplace_back();
  req.id = next_request_id_++;
  req.function = fn;
  req.arrival = sim_.now();
  req.closed_loop = closed_loop;
  if (gateway_.Dispatch(&req)) return;
  // Only dispatched requests are retained: an instance holds the
  // pointer until completion marks it done (deque references survive
  // pushes and pops at either end). A refused request is still the
  // back record and dies here — keeping it would permanently stall
  // the prune cursor on a record that can never complete.
  requests_.pop_back();
}

void
ClusterRuntime::AttachArrivals(
    FunctionId fn, std::unique_ptr<workload::ArrivalProcess> process,
    TimeUs until)
{
  const std::size_t s = streams_.size();
  const sim::SourceId source = sim_.RegisterSource([this, s] {
    IssueRequest(streams_[s].fn, false);
    ScheduleNext(s);
  });
  streams_.push_back(
      {fn, std::move(process), until, /*closed_loop=*/false, source});
  ScheduleNext(s);
}

void
ClusterRuntime::AttachClosedLoop(
    FunctionId fn, int clients,
    std::unique_ptr<workload::ArrivalProcess> think, TimeUs until)
{
  DILU_CHECK(clients >= 1);
  streams_.push_back({fn, std::move(think), until, /*closed_loop=*/true});
  // Each client starts with a think gap (staggered by the process
  // draws), then self-perpetuates through the completion / drop hooks.
  for (int c = 0; c < clients; ++c) ScheduleClosedLoopIssue(fn);
}

void
ClusterRuntime::ScheduleClosedLoopIssue(FunctionId fn)
{
  // The newest closed loop of `fn` drives all its clients: attaching
  // again replaces the think process and the end for every client.
  for (std::size_t s = streams_.size(); s-- > 0;) {
    if (streams_[s].closed_loop && streams_[s].fn == fn) {
      ScheduleNext(s);
      return;
    }
  }
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
  return scaling::kContainerBase + (ready - now);
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

Node&
ClusterRuntime::NodeAt(NodeId id)
{
  DILU_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

void
ClusterRuntime::KillInstance(InstanceId id,
                             std::vector<workload::Request*>* orphans)
{
  const InstanceRecord* rec = LiveRecord(id);
  if (rec == nullptr) return;
  auto* inst =
      dynamic_cast<runtime::InferenceInstance*>(rec->instance.get());
  DILU_CHECK(inst != nullptr);
  // Surrender queued + in-flight work unfinished, then tear down.
  inst->FailAndDrain(orphans);
  Retire(id);
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
  if (!joint_recovery_ || needs->size() < 2) return;
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
  const DeployedFunction& f = function(fn);
  if (f.spec.type == TaskType::kTraining) {
    // Already healed by an earlier retry (or completed meanwhile).
    if (f.job_completed_at >= 0) return true;
    if (f.job && !f.live_instances.empty()) return true;
  }
  std::vector<GpuId> gpus;
  return Launch(fn, Start::kRecovery, &gpus) != kInvalidInstance;
}

TimeUs
ClusterRuntime::RecoveryRetryDelay()
{
  TimeUs delay = kRecoveryRetry << recovery_backoff_shift_;
  // The first retry keeps the exact base cadence; escalated
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
                ToSec(kRecoveryRetry << recovery_backoff_shift_)));
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

  int displaced = 0;
  std::vector<FunctionId> needs;  // one entry per replacement to launch
  std::vector<workload::Request*> orphans;
  for (InstanceId id : ResidentInstances(newly_down)) {
    const InstanceRecord* rec = LiveRecord(id);
    // Already gone: released earlier, or a sibling worker's job abort
    // cascaded through this one.
    if (rec == nullptr) continue;
    const FunctionId fn = rec->function;
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
  Node& n = NodeAt(node_id);
  n.health = GpuHealth::kDown;
  return FailGpus(n.gpus, "node_fail",
                  "node=" + std::to_string(node_id));
}

void
ClusterRuntime::RecoverNode(NodeId node_id)
{
  Node& n = NodeAt(node_id);
  n.health = GpuHealth::kUp;
  // Heal by device health, not by the node's: per-GPU faults (and
  // degradations) leave the node itself marked up.
  bool healed = false;
  for (GpuId g : n.gpus) {
    if (state_.health(g) == GpuHealth::kUp) continue;
    HealGpu(g);
    healed = true;
  }
  if (!healed) return;
  metrics_.RecordFault(sim_.now(), "node_recover",
                       "node=" + std::to_string(node_id));
  if (!pending_recovery_.empty()) RetryPendingRecoveries();
}

int
ClusterRuntime::DrainNode(NodeId node_id)
{
  Node& n = NodeAt(node_id);
  for (GpuId g : n.gpus) {
    const GpuHealth h = state_.health(g);
    if (h == GpuHealth::kUp || h == GpuHealth::kDegraded) {
      state_.SetHealth(g, GpuHealth::kDraining);
    }
  }
  n.health = GpuHealth::kDraining;

  int migrated = 0;
  for (InstanceId id : ResidentInstances(n.gpus)) {
    const InstanceRecord* rec = LiveRecord(id);
    if (rec == nullptr) continue;
    const DeployedFunction& f = function(rec->function);
    // Training workers are not migrated: the drain only blocks new
    // placements; lockstep jobs run to completion where they are.
    if (f.spec.type != TaskType::kInference) continue;
    // Replacement first, then graceful removal — the function never
    // loses capacity it had. If no replacement fits, the instance
    // stays put (best-effort drain).
    std::vector<GpuId> dest;
    if (Launch(f.id, Start::kRecovery, &dest) == kInvalidInstance) continue;
    ++migrated;
    if (fabric_) {
      // KV/session state migrates through the network tier; the
      // original keeps serving until the transfer lands, so the drain
      // duration is emergent from fabric contention. A harder fault
      // may tear the original down mid-transfer (Retire is then a
      // no-op).
      const fabric::TransferResult xfer = fabric_->SubmitNetwork(
          node_id, NodeOfGpu(dest[0]), f.model->mem_gb_inference,
          sim_.now());
      sim_.Post(xfer.done, [this, id] { Retire(id); });
      continue;
    }
    Retire(id);
  }
  metrics_.RecordFault(sim_.now(), "node_drain",
                       "node=" + std::to_string(node_id) + " migrated="
                           + std::to_string(migrated));
  return migrated;
}

void
ClusterRuntime::UndrainNode(NodeId node_id)
{
  Node& n = NodeAt(node_id);
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
