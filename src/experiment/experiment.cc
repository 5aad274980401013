#include "experiment/experiment.h"

#include <algorithm>
#include <cmath>

#include "cluster/trace_export.h"
#include "common/json.h"
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

namespace {

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

}  // namespace

std::vector<ExperimentSpec>
SplitIntoShards(const ExperimentSpec& spec, std::uint64_t seed, int n,
                std::vector<int>* owners)
{
  const cluster::ClusterConfig fleet =
      BuildClusterConfig(spec.cluster(), spec.fabric());
  DILU_CHECK(n >= 1 && n <= fleet.nodes);
  const auto shards_n = static_cast<std::size_t>(n);
  std::vector<ExperimentSpec> shards(shards_n);
  // Shard s owns nodes [first_node[s], first_node[s + 1]).
  std::vector<NodeId> first_node{0};
  for (int s = 0; s < n; ++s) {
    ExperimentSpec& sh = shards[static_cast<std::size_t>(s)];
    const int nodes = fleet.nodes / n + (s < fleet.nodes % n ? 1 : 0);
    sh.set_name(spec.name());
    sh.cluster() = spec.cluster();
    sh.cluster().nodes = nodes;
    sh.cluster().seed = ShardSeed(seed, s);
    sh.fabric() = spec.fabric();
    sh.RunFor(spec.EffectiveRunFor());
    sh.chaos().set_name(spec.chaos().name());
    first_node.push_back(first_node.back() + nodes);
  }
  for (std::size_t i = 0; i < spec.deploys().size(); ++i) {
    shards[i % shards_n].deploys().push_back(spec.deploys()[i]);
  }
  for (std::size_t i = 0; i < spec.workloads().size(); ++i) {
    WorkloadSpec w = spec.workloads()[i];
    const int s = w.fn % n;
    w.fn /= n;
    if (!w.seed) w.seed = WorkloadStreamSeed(seed, i);
    shards[static_cast<std::size_t>(s)].workloads().push_back(w);
  }

  const auto owner_of_node = [&](NodeId node) {
    DILU_CHECK(node >= 0 && node < fleet.nodes);
    return static_cast<int>(std::upper_bound(first_node.begin() + 1,
                                             first_node.end(), node)
                            - first_node.begin() - 1);
  };
  if (owners != nullptr) owners->clear();
  for (chaos::ScenarioEvent e : spec.chaos().Sorted()) {
    int s = -1;
    switch (chaos::OperandOf(e.kind)) {
      case chaos::Operand::kFleet: break;
      case chaos::Operand::kGpu:
        DILU_CHECK(e.target >= 0);
        s = owner_of_node(e.target / fleet.gpus_per_node);
        e.target -= first_node[static_cast<std::size_t>(s)]
            * fleet.gpus_per_node;
        break;
      case chaos::Operand::kNode:
        s = owner_of_node(e.target);
        e.target -= first_node[static_cast<std::size_t>(s)];
        break;
      case chaos::Operand::kFunction:
        s = e.function % n;
        e.function /= n;
        break;
    }
    if (owners != nullptr) owners->push_back(s);
    if (s >= 0) {
      shards[static_cast<std::size_t>(s)].chaos().Add(e);
    } else {
      for (ExperimentSpec& sh : shards) sh.chaos().Add(e);
    }
  }
  return shards;
}

Experiment::Experiment(ExperimentSpec spec, RunOptions opts,
                       ShardOptions shard_opts)
    : spec_(std::move(spec)),
      opts_(std::move(opts)),
      threads_(shard_opts.threads)
{
  const cluster::ClusterConfig fleet =
      BuildClusterConfig(spec_.cluster(), spec_.fabric());
  seed_ = opts_.seed != 0 ? opts_.seed : fleet.seed;
  const int n = std::max(1, std::min(shard_opts.shards, fleet.nodes));
  // Pins name GPUs of the whole fleet; no shard could honour them, so
  // dilu_run and ExpandSweep reject a pinned spec asked for >1 shard.
  DILU_CHECK(shard_opts.shards <= 1 || !spec_.pinned());
  if (n != shard_opts.shards) {
    DILU_WARN << "shards clamped to " << n << " (fleet has "
              << fleet.nodes << " nodes)";
  }
  for (ExperimentSpec& s : SplitIntoShards(spec_, seed_, n, &owners_)) {
    Shard& sh = shards_.emplace_back();
    sh.runtime = std::make_unique<cluster::ClusterRuntime>(
        BuildClusterConfig(s.cluster(), s.fabric()));
    for (const DeploySpec& d : s.deploys()) sh.runtime->Deploy(d.fn);
    sh.spec = std::move(s);
  }
}

Experiment::~Experiment() = default;

cluster::ClusterRuntime&
Experiment::runtime(int s)
{
  DILU_CHECK(s >= 0 && s < shard_count());
  return *shards_[static_cast<std::size_t>(s)].runtime;
}

void
Experiment::Arm(Shard& sh)
{
  // Pinned launches come first, in deploy order (the order the loader
  // checked their memory in); then provision warm capacity, enable
  // co-scaling and submit training.
  cluster::ClusterRuntime& rt = *sh.runtime;
  for (std::size_t i = 0; i < sh.spec.deploys().size(); ++i) {
    const DeploySpec& d = sh.spec.deploys()[i];
    const auto fn = static_cast<FunctionId>(i);
    if (d.on.empty()) continue;
    if (d.fn.type == TaskType::kInference) {
      rt.LaunchInferenceOn(fn, d.on, /*cold=*/false);
    } else {
      rt.StartTrainingOn(fn, d.on, /*cold=*/false);
    }
  }
  for (std::size_t i = 0; i < sh.spec.deploys().size(); ++i) {
    const DeploySpec& d = sh.spec.deploys()[i];
    const auto fn = static_cast<FunctionId>(i);
    if (d.fn.type == TaskType::kInference) {
      for (int k = 0; k < d.provision; ++k) {
        rt.LaunchInference(fn, /*cold=*/false);
      }
      if (!d.scaler.empty()) {
        rt.EnableAutoscaler(fn, scaling::MakeHorizontalPolicy(d.scaler));
      }
    } else if (d.on.empty()) {
      // Cold submission at `start` (0 fires as the clock begins).
      rt.simulation().Post(d.start,
                           [&rt, fn] { rt.StartTraining(fn, true); });
    }
  }

  for (const WorkloadSpec& w : sh.spec.workloads()) {
    const auto fn = static_cast<FunctionId>(w.fn);
    if (w.warmup > 0) rt.metrics().SetWarmupUntil(fn, w.start + w.warmup);
    auto attach = [&rt, fn, closed = w.kind == ArrivalKind::kClosed,
                   clients = w.clients, until = w.end(),
                   p = BuildArrivalProcess(w, *w.seed)]() mutable {
      if (closed) {
        rt.AttachClosedLoop(fn, clients, std::move(p), until);
      } else {
        rt.AttachArrivals(fn, std::move(p), until);
      }
    };
    if (w.start <= 0) {
      attach();
    } else {
      rt.simulation().Post(w.start, std::move(attach));
    }
  }

  if (!sh.spec.chaos().empty()) {
    sh.engine = std::make_unique<chaos::ChaosEngine>(&rt, sh.spec.chaos());
    sh.engine->Arm();
  }
}

ExperimentResult
Experiment::Run()
{
  DILU_CHECK(!ran_);
  ran_ = true;
  for (Shard& sh : shards_) Arm(sh);

  // Shards share nothing, so each runs to the horizon as one task.
  const TimeUs horizon = spec_.EffectiveRunFor();
  ParallelFor(shards_.size(), threads_, [this, horizon](std::size_t s) {
    shards_[s].runtime->RunFor(horizon);
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
      if (!cluster::ExportAll(*shards_[s].runtime, shard_prefix)) {
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

  // Deploy i is shard i % n's function i / n.
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < spec_.deploys().size(); ++i) {
    FunctionResult fr = CollectFunctionResult(
        *shards_[i % n].runtime, static_cast<FunctionId>(i / n));
    r.total_completed += fr.completed;
    r.total_dropped += fr.dropped;
    r.functions.push_back(std::move(fr));
  }

  // Chaos verdict: merge each event's per-shard copies into one
  // fleet-wide outcome (a broadcast verb injected on N shards is still
  // ONE fault; it recovers when the last shard recovers), then score
  // the merged list with the engine's own scorer. Each shard's engine
  // holds its copies in the same time order, so they are consumed in
  // order.
  if (!owners_.empty()) {
    const std::vector<chaos::ScenarioEvent> events =
        spec_.chaos().Sorted();
    std::vector<std::size_t> next(n, 0);  // per shard: next outcome
    std::vector<chaos::FaultOutcome> merged;
    for (std::size_t e = 0; e < events.size(); ++e) {
      chaos::FaultOutcome out;
      out.event = events[e];
      bool all_recovered = true;
      TimeUs last_recovery = -1;
      for (std::size_t s = 0; s < n; ++s) {
        const int owner = owners_[e];
        if (owner >= 0 && static_cast<std::size_t>(owner) != s) continue;
        const chaos::FaultOutcome& o =
            shards_[s].engine->outcomes()[next[s]++];
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
    const fabric::FabricPlane* fp = sh.runtime->fabric();
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
    const cluster::ClusterRuntime& rt = *sh.runtime;
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
