#include "experiment/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "cluster/trace_export.h"
#include "common/logging.h"
#include "common/work_pool.h"
#include "fabric/fabric.h"
#include "workload/arrival.h"
#include "workload/azure_traces.h"

namespace dilu::experiment {

std::uint64_t
WorkloadStreamSeed(std::uint64_t base, std::size_t index)
{
  return base * 0x9E3779B97F4A7C15ull
      + (static_cast<std::uint64_t>(index) + 1) * 0x100000001B3ull;
}

namespace {

/** SystemConfig from preset + spec overrides (+ CLI seed override). */
core::SystemConfig
BuildSystemConfig(const ClusterSection& c, const FabricSection& fab,
                  std::uint64_t seed_override)
{
  core::SystemConfig cfg = core::SystemConfig::Preset(c.preset);
  cluster::ClusterConfig& cl = cfg.cluster;
  if (c.nodes) cl.nodes = *c.nodes;
  if (c.gpus_per_node) cl.gpus_per_node = *c.gpus_per_node;
  if (c.scheduler) cl.scheduler = *c.scheduler;
  if (c.sharing) cl.sharing = *c.sharing;
  if (c.quota_mode) cl.quota_mode = *c.quota_mode;
  if (c.recovery) cl.recovery = *c.recovery;
  if (c.warm_starts) cl.warm_starts = *c.warm_starts;
  if (c.resource_complementarity) {
    cl.sched.resource_complementarity = *c.resource_complementarity;
  }
  if (c.workload_affinity) {
    cl.sched.workload_affinity = *c.workload_affinity;
  }
  if (c.seed) cl.seed = *c.seed;
  if (seed_override != 0) cl.seed = seed_override;
  cl.fabric.enabled = fab.enabled();
  if (fab.storage_bw) cl.fabric.storage_bw_gbps = *fab.storage_bw;
  if (fab.storage_gc) cl.fabric.storage_gc_duty = *fab.storage_gc;
  if (fab.storage_devices) cl.fabric.storage_devices = *fab.storage_devices;
  if (fab.nic_rate) cl.fabric.nic_rate_gbps = *fab.nic_rate;
  if (fab.nic_burst) cl.fabric.nic_burst_gb = *fab.nic_burst;
  return cfg;
}

/** Envelope seconds covering a workload's warmup + duration. */
int
EnvelopeSeconds(const WorkloadSpec& w)
{
  return static_cast<int>(
      std::ceil(ToSec(w.warmup + w.duration) - 1e-9));
}

}  // namespace

std::unique_ptr<workload::ArrivalProcess>
BuildArrivalProcess(const WorkloadSpec& w, std::uint64_t stream_seed)
{
  switch (w.kind) {
    case ArrivalKind::kConstant:
      return std::make_unique<workload::ConstantArrivals>(w.rps);
    case ArrivalKind::kPoisson:
      return std::make_unique<workload::PoissonArrivals>(
          w.rps, Rng(stream_seed));
    case ArrivalKind::kGamma:
      return std::make_unique<workload::GammaArrivals>(w.rps, w.cv,
                                                       Rng(stream_seed));
    case ArrivalKind::kBursty: {
      workload::BurstySpec b;
      b.duration_s = EnvelopeSeconds(w);
      b.base_rps = w.rps;
      b.seed = stream_seed + 7;
      b.burst_scale = w.scale;
      b.burst_len_s = static_cast<int>(ToSec(w.burst_len));
      b.burst_gap_s = static_cast<int>(ToSec(w.burst_gap));
      return std::make_unique<workload::EnvelopeArrivals>(
          workload::BuildBurstyTrace(b), Rng(stream_seed));
    }
    case ArrivalKind::kPeriodic: {
      workload::PeriodicSpec p;
      p.duration_s = EnvelopeSeconds(w);
      p.base_rps = w.rps;
      p.seed = stream_seed + 7;
      p.amplitude = w.amplitude;
      p.period_s = static_cast<int>(ToSec(w.period));
      return std::make_unique<workload::EnvelopeArrivals>(
          workload::BuildPeriodicTrace(p), Rng(stream_seed));
    }
    case ArrivalKind::kSporadic: {
      workload::SporadicSpec s;
      s.duration_s = EnvelopeSeconds(w);
      s.base_rps = w.rps;
      s.seed = stream_seed + 7;
      s.active_fraction = w.active;
      s.spike_len_s = static_cast<int>(ToSec(w.spike));
      return std::make_unique<workload::EnvelopeArrivals>(
          workload::BuildSporadicTrace(s), Rng(stream_seed));
    }
    case ArrivalKind::kClosed:
      // Exponential think times with mean `think` (the classic
      // closed-loop client model); rps here is requests/s per client.
      return std::make_unique<workload::PoissonArrivals>(
          1e6 / static_cast<double>(w.think), Rng(stream_seed));
  }
  Fatal("unreachable arrival kind");
}

namespace {

/** One function's measured outcome, read out of its runtime. */
FunctionResult
CollectFunctionResult(const cluster::ClusterRuntime& rt, FunctionId id)
{
  const cluster::FunctionMetrics& m = rt.metrics().function(id);
  const cluster::DeployedFunction& f = rt.function(id);
  FunctionResult fr;
  fr.name = f.spec.display_name();
  fr.type = f.spec.type;
  fr.completed = m.completed;
  fr.p50_ms = m.latency_ms.P50();
  fr.p95_ms = m.latency_ms.P95();
  fr.p99_ms = m.latency_ms.P99();
  fr.mean_ms = m.latency_ms.mean();
  fr.svr_percent = m.SvrPercent();
  fr.cold_starts = m.cold_starts;
  fr.recovery_cold_starts = m.recovery_cold_starts;
  fr.dropped = m.dropped;
  fr.availability_percent = m.AvailabilityPercent();
  if (f.spec.type == TaskType::kInference) {
    const cluster::GatewayCounters& gc = rt.gateway().counters(id);
    fr.service_class = m.service_class;
    fr.admitted = m.admitted;
    fr.shed_admission = m.shed_admission;
    fr.shed_retry = m.shed_retry;
    fr.peak_queue = gc.peak_outstanding;
  }
  if (f.spec.type == TaskType::kTraining) {
    fr.iterations = f.job ? f.job->stats().iterations_completed : 0;
    fr.restarts = m.training_restarts;
    fr.lost_iterations = m.lost_iterations;
    fr.checkpoints = m.checkpoints;
    fr.checkpoint_pause_s = ToSec(m.checkpoint_pause);
    const TimeUs jct = rt.TrainingJct(id);
    fr.jct_s = jct < 0 ? -1.0 : ToSec(jct);
    fr.throughput_units = rt.TrainingThroughputUnits(id);
  }
  return fr;
}

void
AppendJson(std::string* out, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
AppendJson(std::string* out, const char* fmt, ...)
{
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/**
 * JSON string escaping for names that flow in from specs (a `name=`
 * value may contain '"' or '\'); appended outside AppendJson's fixed
 * buffer so long names cannot truncate the record.
 */
std::string
EscapeJson(const std::string& s)
{
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

/**
 * Cluster seed of shard `s` under global seed `base`. Shard 0 keeps
 * the base seed, so a one-shard run is the unpartitioned fleet; the
 * others get distinct mixes (scheduler tie-breaks and recovery jitter
 * stay decorrelated across shards), deliberately different in form
 * from WorkloadStreamSeed so shard seeds and stream seeds cannot
 * collide.
 */
std::uint64_t
ShardSeed(std::uint64_t base, int shard)
{
  if (shard == 0) return base;
  return base * 0x9E3779B97F4A7C15ull
      ^ (static_cast<std::uint64_t>(shard) + 1) * 0xD6E8FEB86659FD93ull;
}

/** Does this verb hit the whole fleet (copied to every shard)? */
bool
IsBroadcast(chaos::FaultKind kind)
{
  return kind == chaos::FaultKind::kColdStartInflation
      || kind == chaos::FaultKind::kStorageBrownout;
}

/** Does this verb target a GPU id? */
bool
TargetsGpu(chaos::FaultKind kind)
{
  switch (kind) {
    case chaos::FaultKind::kGpuFail:
    case chaos::FaultKind::kGpuRecover:
    case chaos::FaultKind::kGpuDegrade:
    case chaos::FaultKind::kGpuStraggle:
      return true;
    default:
      return false;
  }
}

/** Does this verb target a node id (incl. the node's NIC)? */
bool
TargetsNode(chaos::FaultKind kind)
{
  switch (kind) {
    case chaos::FaultKind::kNodeFail:
    case chaos::FaultKind::kNodeRecover:
    case chaos::FaultKind::kNodeDrain:
    case chaos::FaultKind::kNodeUndrain:
    case chaos::FaultKind::kLinkFail:
      return true;
    default:
      return false;
  }
}

}  // namespace

Experiment::Experiment(ExperimentSpec spec, RunOptions opts,
                       ShardOptions shard_opts)
    : spec_(std::move(spec)),
      opts_(std::move(opts)),
      threads_(shard_opts.threads)
{
  const core::SystemConfig base =
      BuildSystemConfig(spec_.cluster(), spec_.fabric(), opts_.seed);
  seed_ = base.cluster.seed;
  gpus_per_node_ = base.cluster.gpus_per_node;
  const int total_nodes = base.cluster.nodes;
  DILU_CHECK(total_nodes >= 1);
  const int n = std::max(1, std::min(shard_opts.shards, total_nodes));
  if (n != shard_opts.shards) {
    DILU_WARN << "shards clamped to " << n << " (fleet has "
              << total_nodes << " nodes)";
  }

  // Contiguous balanced node blocks: shard s owns
  // [first_node, first_node + nodes).
  shards_.resize(static_cast<std::size_t>(n));
  const int per = total_nodes / n;
  const int rem = total_nodes % n;
  NodeId next = 0;
  for (int s = 0; s < n; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.first_node = next;
    sh.nodes = per + (s < rem ? 1 : 0);
    next += sh.nodes;
    core::SystemConfig cfg = base;
    cfg.cluster.nodes = sh.nodes;
    cfg.cluster.seed = ShardSeed(seed_, s);
    sh.system = std::make_unique<core::System>(cfg);
  }

  // Home deploy index i on shard i % n, preserving deploy order
  // within each shard (local function ids are local deploy indexes).
  for (std::size_t i = 0; i < spec_.deploys().size(); ++i) {
    const int s = static_cast<int>(i % static_cast<std::size_t>(n));
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    homes_.emplace_back(s, sh.fn_ids.size());
    sh.fn_ids.push_back(sh.system->Deploy(spec_.deploys()[i].fn));
  }
}

Experiment::~Experiment() = default;

cluster::ClusterRuntime&
Experiment::runtime(int s)
{
  DILU_CHECK(s >= 0 && s < shard_count());
  return shards_[static_cast<std::size_t>(s)].system->runtime();
}

int
Experiment::OwnerOfNode(NodeId node) const
{
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    if (node >= sh.first_node && node < sh.first_node + sh.nodes) {
      return static_cast<int>(s);
    }
  }
  Fatal("chaos event targets node " + std::to_string(node)
        + " outside the fleet");
}

void
Experiment::SplitChaos()
{
  // Walk the scenario in time order and copy each event into its
  // owning shard's sub-scenario with local target ids (fleet-wide
  // verbs go to every shard). Every sub-scenario is then already in
  // its engine's (stable, by time) order, so a copy's insertion index
  // is its outcome index; one shard receives the scenario unchanged.
  for (chaos::ScenarioEvent e : spec_.chaos().Sorted()) {
    std::vector<std::pair<int, std::size_t>>& copies =
        chaos_copies_.emplace_back();
    std::vector<int> targets;
    if (IsBroadcast(e.kind)) {
      for (int s = 0; s < shard_count(); ++s) targets.push_back(s);
    } else if (TargetsGpu(e.kind)) {
      DILU_CHECK(e.target >= 0);
      const int s = OwnerOfNode(e.target / gpus_per_node_);
      e.target -= shards_[static_cast<std::size_t>(s)].first_node
          * gpus_per_node_;
      targets.push_back(s);
    } else if (TargetsNode(e.kind)) {
      const int s = OwnerOfNode(e.target);
      e.target -= shards_[static_cast<std::size_t>(s)].first_node;
      targets.push_back(s);
    } else {
      // Function-targeted verb (checkpoint / surge / overload /
      // throttle): the function's home shard, with the global deploy
      // index remapped to the shard-local function id.
      const auto fi = static_cast<std::size_t>(e.function);
      DILU_CHECK(fi < homes_.size());
      const auto [s, local] = homes_[fi];
      e.function = shards_[static_cast<std::size_t>(s)].fn_ids[local];
      targets.push_back(s);
    }
    for (const int s : targets) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      copies.emplace_back(s, sh.scenario.events().size());
      sh.scenario.Add(e);
    }
  }
  for (Shard& sh : shards_) {
    sh.scenario.set_name(spec_.chaos().name());
  }
}

void
Experiment::ArmWorkload(std::size_t index)
{
  const WorkloadSpec& w = spec_.workloads()[index];
  const auto fi = static_cast<std::size_t>(w.fn);
  DILU_CHECK(fi < homes_.size());
  const auto [s, local] = homes_[fi];
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  cluster::ClusterRuntime& rt = sh.system->runtime();
  const FunctionId fn = sh.fn_ids[local];
  // Global seed + global workload index: the stream is identical at
  // any shard count.
  const std::uint64_t stream =
      w.seed ? *w.seed : WorkloadStreamSeed(seed_, index);
  const TimeUs until = w.end();
  if (w.warmup > 0) {
    rt.metrics().SetWarmupUntil(fn, w.start + w.warmup);
  }
  auto proc = BuildArrivalProcess(w, stream);
  if (w.kind == ArrivalKind::kClosed) {
    const int clients = w.clients;
    if (w.start <= 0) {
      rt.AttachClosedLoop(fn, clients, std::move(proc), until);
    } else {
      rt.simulation().Post(
          w.start, [&rt, fn, clients, until,
                    p = std::move(proc)]() mutable {
            rt.AttachClosedLoop(fn, clients, std::move(p), until);
          });
    }
  } else {
    if (w.start <= 0) {
      rt.AttachArrivals(fn, std::move(proc), until);
    } else {
      rt.simulation().Post(
          w.start, [&rt, fn, until, p = std::move(proc)]() mutable {
            rt.AttachArrivals(fn, std::move(p), until);
          });
    }
  }
}

ExperimentResult
Experiment::Run()
{
  DILU_CHECK(!ran_);
  ran_ = true;

  // Provision warm capacity, enable co-scaling, submit training — in
  // global deploy order.
  for (std::size_t i = 0; i < spec_.deploys().size(); ++i) {
    const DeploySpec& d = spec_.deploys()[i];
    const auto [s, local] = homes_[i];
    const Shard& sh = shards_[static_cast<std::size_t>(s)];
    core::System* sys = sh.system.get();
    const FunctionId fn = sh.fn_ids[local];
    if (d.fn.type == TaskType::kInference) {
      if (d.provision > 0) sys->Provision(fn, d.provision);
      if (!d.scaler.empty()) sys->EnableCoScaling(fn, d.scaler);
    } else {
      // Cold submission at `start` (0 fires as the clock begins).
      sys->runtime().simulation().Post(
          d.start, [sys, fn] { sys->StartTraining(fn, true); });
    }
  }

  for (std::size_t i = 0; i < spec_.workloads().size(); ++i) {
    ArmWorkload(i);
  }

  SplitChaos();
  for (Shard& sh : shards_) {
    if (sh.scenario.empty()) continue;
    sh.engine = std::make_unique<chaos::ChaosEngine>(
        &sh.system->runtime(), sh.scenario);
    sh.engine->Arm();
  }

  // Shards share nothing, so each runs to the horizon as one task.
  const TimeUs horizon = spec_.EffectiveRunFor();
  ParallelFor(shards_.size(), threads_, [this, horizon](std::size_t s) {
    shards_[s].system->RunFor(horizon);
  });
  if (probe_) probe_(horizon);

  ExperimentResult result = Collect();
  const std::string& prefix = opts_.export_prefix.empty()
      ? spec_.export_prefix()
      : opts_.export_prefix;
  if (!prefix.empty()) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::string shard_prefix = shards_.size() == 1
          ? prefix
          : prefix + "_s" + std::to_string(s);
      if (!cluster::ExportAll(shards_[s].system->runtime(),
                              shard_prefix)) {
        result.export_ok = false;
        DILU_WARN << "trace export to prefix '" << shard_prefix
                  << "' failed";
      }
    }
  }
  return result;
}

ExperimentResult
Experiment::Collect() const
{
  ExperimentResult r;
  r.experiment = spec_.name();
  r.seed = seed_;
  r.run_for_s = ToSec(spec_.EffectiveRunFor());

  for (std::size_t i = 0; i < spec_.deploys().size(); ++i) {
    const auto [s, local] = homes_[i];
    const Shard& sh = shards_[static_cast<std::size_t>(s)];
    FunctionResult fr = CollectFunctionResult(sh.system->runtime(),
                                              sh.fn_ids[local]);
    r.total_completed += fr.completed;
    r.total_dropped += fr.dropped;
    r.functions.push_back(std::move(fr));
  }

  // Chaos verdict: merge each event's per-shard copies into one
  // fleet-wide outcome (a broadcast verb injected on N shards is still
  // ONE fault; it recovers when the last shard recovers), then score
  // the merged list with the engine's own scorer.
  if (!chaos_copies_.empty()) {
    const std::vector<chaos::ScenarioEvent> events =
        spec_.chaos().Sorted();
    std::vector<chaos::FaultOutcome> merged;
    for (std::size_t e = 0; e < events.size(); ++e) {
      chaos::FaultOutcome out;
      out.event = events[e];
      bool all_recovered = true;
      TimeUs last_recovery = -1;
      for (const auto& [s, local] : chaos_copies_[e]) {
        const chaos::FaultOutcome& o =
            shards_[static_cast<std::size_t>(s)].engine->outcomes()[local];
        if (!o.injected) continue;
        out.injected = true;
        out.displaced += o.displaced;
        if (o.recovered_at < 0) {
          all_recovered = false;
        } else {
          last_recovery = std::max(last_recovery, o.recovered_at);
        }
      }
      if (out.injected && all_recovered) out.recovered_at = last_recovery;
      merged.push_back(out);
    }
    r.chaos = chaos::ChaosEngine::VerdictOf(merged);
  }

  for (const Shard& sh : shards_) {
    const fabric::FabricPlane* fp = sh.system->runtime().fabric();
    if (fp == nullptr) continue;
    const fabric::FabricTotals& t = fp->totals();
    r.fabric_enabled = true;
    r.fabric_storage_transfers += t.storage_transfers;
    r.fabric_network_transfers += t.network_transfers;
    r.fabric_storage_gb += t.storage_gb;
    r.fabric_network_gb += t.network_gb;
    r.fabric_stall_s += ToSec(t.stall_us);
    r.fabric_max_queue = std::max(r.fabric_max_queue, t.max_queue);
  }

  // Cluster aggregates: integer counters merge exactly (so the
  // serialized report is bit-stable at any thread count); max_gpus is
  // the sum of per-shard peaks — an upper bound on the fleet-wide
  // concurrent peak, and exact whenever occupancy is flat. The serving
  // counters of every function sum into one FunctionMetrics, whose
  // SVR / availability formulas are the ones MetricsHub's Overall*
  // apply to a single shard's sums.
  std::int64_t active_sum = 0;
  std::size_t sample_count = 0;
  cluster::FunctionMetrics fleet;
  for (const Shard& sh : shards_) {
    const cluster::ClusterRuntime& rt = sh.system->runtime();
    const cluster::MetricsHub& hub = rt.metrics();
    r.max_gpus += rt.max_active_gpus();
    for (const cluster::ClusterSample& cs : hub.samples()) {
      active_sum += cs.active_gpus;
    }
    sample_count = std::max(sample_count, hub.samples().size());
    r.gpu_seconds += hub.total_gpu_seconds();
    r.total_shed += hub.TotalShed();
    r.total_cold_starts += hub.TotalColdStarts();
    for (const auto& [id, m] : hub.functions()) {
      fleet.completed += m.completed;
      fleet.violations += m.violations;
      fleet.dropped += m.dropped;
      fleet.shed_admission += m.shed_admission;
      fleet.shed_retry += m.shed_retry;
    }
  }
  r.avg_gpus = static_cast<double>(active_sum)
      / static_cast<double>(std::max<std::size_t>(1, sample_count));
  r.overall_svr_percent = fleet.SvrPercent();
  r.overall_availability_percent = fleet.AvailabilityPercent();
  return r;
}

std::string
ExperimentResult::ToJson() const
{
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"dilu-experiment/1\",\n";
  out += "  \"experiment\": \"" + EscapeJson(experiment) + "\",\n";
  AppendJson(&out, "  \"seed\": %llu,\n",
             static_cast<unsigned long long>(seed));
  AppendJson(&out, "  \"run_for_s\": %.3f,\n", run_for_s);
  out += "  \"functions\": [\n";
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionResult& f = functions[i];
    out += "    {\"name\": \"" + EscapeJson(f.name) + "\", ";
    if (f.type == TaskType::kInference) {
      AppendJson(&out,
                 "\"task\": \"inference\", "
                 "\"class\": \"%s\", "
                 "\"completed\": %lld, \"p50_ms\": %.3f, "
                 "\"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"mean_ms\": %.3f, "
                 "\"svr_percent\": %.3f, \"cold_starts\": %d, "
                 "\"recovery_cold_starts\": %d, \"dropped\": %lld, ",
                 ToString(f.service_class),
                 static_cast<long long>(f.completed),
                 f.p50_ms, f.p95_ms, f.p99_ms, f.mean_ms, f.svr_percent,
                 f.cold_starts, f.recovery_cold_starts,
                 static_cast<long long>(f.dropped));
      AppendJson(&out,
                 "\"admitted\": %lld, \"shed_admission\": %lld, "
                 "\"shed_retry\": %lld, \"peak_queue\": %lld, "
                 "\"availability_percent\": %.3f}",
                 static_cast<long long>(f.admitted),
                 static_cast<long long>(f.shed_admission),
                 static_cast<long long>(f.shed_retry),
                 static_cast<long long>(f.peak_queue),
                 f.availability_percent);
    } else {
      AppendJson(&out,
                 "\"task\": \"training\", "
                 "\"iterations\": %lld, \"restarts\": %d, "
                 "\"lost_iterations\": %lld, \"checkpoints\": %d, "
                 "\"checkpoint_pause_s\": %.3f, \"jct_s\": %.3f, "
                 "\"throughput_units\": %.3f, "
                 "\"recovery_cold_starts\": %d}",
                 static_cast<long long>(f.iterations),
                 f.restarts, static_cast<long long>(f.lost_iterations),
                 f.checkpoints, f.checkpoint_pause_s, f.jct_s,
                 f.throughput_units, f.recovery_cold_starts);
    }
    out += i + 1 < functions.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  AppendJson(&out,
             "  \"chaos\": {\"injected\": %d, \"disruptive\": %d, "
             "\"recovered\": %d, \"mean_ttr_s\": %.3f, "
             "\"max_ttr_s\": %.3f, \"shed_events\": %d, "
             "\"shed_recovered\": %d, \"mean_ttsr_s\": %.3f, "
             "\"max_ttsr_s\": %.3f},\n",
             chaos.injected, chaos.disruptive, chaos.recovered,
             chaos.mean_ttr_s, chaos.max_ttr_s, chaos.shed_events,
             chaos.shed_recovered, chaos.mean_ttsr_s,
             chaos.max_ttsr_s);
  if (fabric_enabled) {
    AppendJson(&out,
               "  \"fabric\": {\"storage_transfers\": %lld, "
               "\"network_transfers\": %lld, \"storage_gb\": %.3f, "
               "\"network_gb\": %.3f, \"stall_s\": %.3f, "
               "\"max_queue\": %d},\n",
               static_cast<long long>(fabric_storage_transfers),
               static_cast<long long>(fabric_network_transfers),
               fabric_storage_gb, fabric_network_gb, fabric_stall_s,
               fabric_max_queue);
  }
  AppendJson(&out,
             "  \"cluster\": {\"max_gpus\": %d, \"avg_gpus\": %.3f, "
             "\"gpu_seconds\": %.3f, \"total_completed\": %lld, "
             "\"total_dropped\": %lld, \"total_shed\": %lld, "
             "\"total_cold_starts\": %d, "
             "\"overall_svr_percent\": %.3f, "
             "\"overall_availability_percent\": %.3f}\n",
             max_gpus, avg_gpus, gpu_seconds,
             static_cast<long long>(total_completed),
             static_cast<long long>(total_dropped),
             static_cast<long long>(total_shed), total_cold_starts,
             overall_svr_percent, overall_availability_percent);
  out += "}\n";
  return out;
}

}  // namespace dilu::experiment
