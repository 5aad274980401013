/**
 * @file
 * perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *   perfbench --workload <name> [--seed N] --print-spec
 *
 * Each workload is a seeded experiment spec (workloads.cc) run through
 * the public experiment API. --trace 0 repeats set-up + Run() for S
 * seconds and reports the end-to-end metrics; --trace 1 runs untraced
 * and probed (layers.cc) runs in pairs for S seconds, runs the churn
 * spec sharded, replays single layers in isolation, and reports the
 * per-layer metrics. Every run is
 * checked (conservation, determinism, what the workload must exercise);
 * a failed check prints "correct": false and exits 1. The last stdout
 * line is the JSON result; progress and the metric table go to stderr.
 * See perfbench/README.md for the metric definitions.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/sharded_experiment.h"
#include "layers.h"
#include "workloads.h"

namespace {

using namespace dilu;
using perfbench::ProbeLog;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

/** Scale-outs undone within one DiluLazyScaler window count as thrash. */
constexpr TimeUs kScalerWindow = Sec(40);
/** Completions a function needs so >= 100 samples lie past its p99. */
constexpr std::int64_t kMinCompletions = 10000;
/**
 * Set-up is timed in batches of back-to-back constructions lasting at
 * least kSetupBatchS; a figure is the median over batches of the
 * per-construction mean, so one slow construction cannot move it.
 */
constexpr double kSetupBatchS = 0.02;
/** Untimed batches first: a process's first constructions run cold. */
constexpr int kWarmupBatches = 2;
/** Share of the untraced window spent in set-up batches. */
constexpr double kSetupShare = 0.05;
/** Batches of the traced run's one-off parse/build timing. */
constexpr int kSetupBatches = 9;
/** Shards of the traced churn run's ShardedExperiment copy. */
constexpr int kShards = 4;

double
SecondsSince(Clock::time_point start)
{
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double
Median(std::vector<double> v)
{
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
Mean(const std::vector<double>& v)
{
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool print_spec = false;
};

bool
ParseArgs(int argc, char** argv, Options* o)
{
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o->workload = perfbench::FindWorkload(argv[++i]);
      if (o->workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s' (have: %s)\n", argv[i],
                     perfbench::WorkloadNames().c_str());
        return false;
      }
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--print-spec") {
      o->print_spec = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument '%s'\n",
                   a.c_str());
      return false;
    }
  }
  if (o->workload == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--print-spec]\n",
                 perfbench::WorkloadNames().c_str());
    return false;
  }
  return true;
}

/** One constructed experiment of a workload, through either driver. */
class Subject {
 public:
  /**
   * Parse `text` and construct the experiment (ShardedExperiment when
   * `shards` > 1); adds the host seconds of each step to `*parse_s` /
   * `*build_s`.
   */
  Subject(const std::string& text, int shards, int threads,
          double* parse_s, double* build_s)
  {
    Clock::time_point start = Clock::now();
    experiment::ExperimentSpec spec;
    std::string error;
    if (!experiment::ExperimentSpec::Parse(text, &spec, &error)) {
      std::fprintf(stderr, "perfbench: spec error: %s\n", error.c_str());
      std::exit(2);
    }
    *parse_s += SecondsSince(start);
    start = Clock::now();
    if (shards > 1) {
      experiment::ShardOptions sh;
      sh.shards = shards;
      sh.threads = threads;
      sharded_ = std::make_unique<experiment::ShardedExperiment>(
          std::move(spec), experiment::RunOptions{}, sh);
    } else {
      single_ = std::make_unique<experiment::Experiment>(std::move(spec));
    }
    *build_s += SecondsSince(start);
  }

  experiment::ExperimentResult Run()
  {
    return sharded_ ? sharded_->Run() : single_->Run();
  }

  const experiment::ExperimentSpec& spec() const
  {
    return sharded_ ? sharded_->spec() : single_->spec();
  }

  int shard_count() const { return sharded_ ? sharded_->shard_count() : 1; }

  std::vector<cluster::ClusterRuntime*> runtimes()
  {
    std::vector<cluster::ClusterRuntime*> out;
    if (single_) out.push_back(&single_->runtime());
    for (int s = 0; sharded_ && s < sharded_->shard_count(); ++s) {
      out.push_back(&sharded_->runtime(s));
    }
    return out;
  }

  /** Count time barriers (sharded runs only). */
  void CountBarriers(std::int64_t* barriers)
  {
    if (sharded_) sharded_->set_barrier_probe([barriers](TimeUs) {
      ++*barriers;
    });
  }

 private:
  std::unique_ptr<experiment::Experiment> single_;
  std::unique_ptr<experiment::ShardedExperiment> sharded_;
};

/** The simulated outcome of one run, plus its checks. */
struct Summary {
  std::string json;
  double run_s = 0.0;
  // --- end to end (simulated) ---
  double svr_pct = 0.0;
  double failed_pct = 0.0;
  double goodput_rps = 0.0;
  double median_p50_ms = 0.0;
  double worst_p99_ms = 0.0;
  double train_iters_per_s = 0.0;
  double avg_gpus = 0.0;
  double gpu_frag_pct = 0.0;
  // --- layer counts ---
  int shards = 1;
  int fleet_gpus = 0;
  std::int64_t attempted = 0;
  std::int64_t dropped = 0;
  std::int64_t shed = 0;
  std::int64_t peak_queue = 0;
  std::int64_t placements = 0;
  int cold_starts = 0;
  int scale_outs = 0;
  int scale_ins = 0;
  int thrashed = 0;
  int collocation_at_end = 0;
  int checkpoints = 0;
  experiment::ExperimentResult result;
  std::vector<std::string> failures;
};

void
Require(Summary* s, bool ok, const std::string& what)
{
  if (!ok) s->failures.push_back(what);
}

/** Count scale-outs / scale-ins / thrash in a scaler count series. */
void
ScaleEvents(const std::vector<std::pair<TimeUs, int>>& series,
            Summary* s)
{
  for (std::size_t i = 1; i < series.size(); ++i) {
    const int delta = series[i].second - series[i - 1].second;
    if (delta < 0) s->scale_ins += -delta;
    if (delta <= 0) continue;
    s->scale_outs += delta;
    for (std::size_t j = i + 1; j < series.size(); ++j) {
      if (series[j].first - series[i].first > kScalerWindow) break;
      if (series[j].second < series[i].second) {
        s->thrashed += delta;
        break;
      }
    }
  }
}

Summary
Summarize(const Workload& w, Subject& subject,
          experiment::ExperimentResult result)
{
  Summary s;
  s.json = result.ToJson();
  s.run_s = result.run_for_s;
  s.shards = subject.shard_count();
  const std::vector<cluster::ClusterRuntime*> rts = subject.runtimes();

  std::int64_t violations = 0;
  std::int64_t completed = 0;
  std::vector<double> p50s;
  for (cluster::ClusterRuntime* rt : rts) {
    s.fleet_gpus += static_cast<int>(rt->gpus().gpu_count());
    s.collocation_at_end =
        std::max(s.collocation_at_end, perfbench::MaxCollocation(*rt));
    for (const auto& [id, m] : rt->metrics().functions()) {
      const cluster::DeployedFunction& f = rt->function(id);
      if (f.spec.type != TaskType::kInference) continue;
      const cluster::GatewayCounters& c = rt->gateway().counters(id);
      const std::int64_t failed = m.dropped + m.shed_admission
          + m.shed_retry;
      const std::int64_t attempted = m.completed + failed;
      Require(&s,
              c.arrivals == attempted && c.outstanding == 0
                  && c.retry_pending == 0,
              "request conservation broken for " + m.name);
      Require(&s, m.completed >= kMinCompletions,
              "fewer than 10k completions for " + m.name);
      s.attempted += attempted;
      s.dropped += m.dropped;
      s.shed += m.shed_admission + m.shed_retry;
      s.peak_queue = std::max(s.peak_queue, c.peak_outstanding);
      s.cold_starts += m.cold_starts;
      s.placements += m.cold_starts + m.recovery_cold_starts;
      violations += m.violations;
      completed += m.completed;
      p50s.push_back(m.latency_ms.P50());
      s.worst_p99_ms = std::max(s.worst_p99_ms, m.latency_ms.P99());
      ScaleEvents(f.instance_count_series, &s);
    }
  }
  for (const experiment::DeploySpec& d : subject.spec().deploys()) {
    s.placements += d.provision;
  }
  for (const experiment::FunctionResult& f : result.functions) {
    s.checkpoints += f.checkpoints;
    if (f.type == TaskType::kTraining) {
      s.train_iters_per_s += static_cast<double>(f.iterations);
    }
  }
  s.train_iters_per_s /= s.run_s;
  const double attempted = static_cast<double>(std::max<std::int64_t>(
      1, s.attempted));
  s.svr_pct = 100.0 * static_cast<double>(violations + s.dropped + s.shed)
      / attempted;
  s.failed_pct = 100.0 * static_cast<double>(s.dropped + s.shed)
      / attempted;
  s.goodput_rps = static_cast<double>(completed - violations) / s.run_s;
  s.median_p50_ms = Median(p50s);

  // 1 Hz samples: shards sample in lockstep, so sum them per second.
  std::size_t seconds = 0;
  for (std::size_t r = 0; r < rts.size(); ++r) {
    const std::size_t n = rts[r]->metrics().samples().size();
    seconds = r == 0 ? n : std::min(seconds, n);
  }
  std::vector<double> gpus;
  std::vector<double> frag;
  for (std::size_t t = 0; t < seconds; ++t) {
    double active = 0.0;
    double unreserved = 0.0;
    for (cluster::ClusterRuntime* rt : rts) {
      const cluster::ClusterSample& x = rt->metrics().samples()[t];
      active += x.active_gpus;
      unreserved += x.sm_fragmentation * x.active_gpus;
    }
    gpus.push_back(active);
    frag.push_back(active > 0 ? 100.0 * unreserved / active : 0.0);
  }
  s.avg_gpus = Mean(gpus);
  s.gpu_frag_pct = Mean(frag);

  // What the workload claims to exercise.
  Require(&s, s.attempted > 0, "no inference requests");
  const double live_ratio = s.avg_gpus / std::max(1, s.fleet_gpus);
  if (w.churn) {
    Require(&s, s.cold_starts > 0, "churn: no cold starts");
    Require(&s, s.scale_ins > 0, "churn: no scale-ins");
    Require(&s, live_ratio < 0.05, "churn: fleet not sparse");
  } else {
    Require(&s, s.collocation_at_end >= 2, "dense: no collocated GPU");
    Require(&s, result.chaos.disruptive > 0
                    && result.chaos.AllRecovered(),
            "dense: node fault not injected and recovered");
    Require(&s, s.checkpoints > 0 && result.fabric_storage_transfers > 0,
            "dense: no checkpoints written");
    Require(&s, live_ratio > 0.9, "dense: fleet not occupied");
  }
  s.result = std::move(result);
  return s;
}

// --- report ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void
Report(bool correct, int attempted, int failed,
       const std::vector<Metric>& metrics)
{
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                     : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.15g, ",
                  i ? ", " : "", metrics[i].name.c_str(), v);
    out += buf;
    out += std::string("\"unit\": \"") + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

bool
ReportFailures(const Summary& s, const char* when)
{
  for (const std::string& f : s.failures) {
    std::fprintf(stderr, "perfbench: check failed (%s): %s\n", when,
                 f.c_str());
  }
  return s.failures.empty();
}

double
PeakRssMb()
{
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Per-construction host seconds of each set-up step. */
struct SetupTimes {
  std::vector<double> parse_s;
  std::vector<double> build_s;
  std::vector<double> total_s;
};

/** Time one batch of constructions into `t` (one sample per step). */
void
TimeSetupBatch(const std::string& text, SetupTimes* t)
{
  double parse = 0.0;
  double build = 0.0;
  int n = 0;
  while (n < 2 || parse + build < kSetupBatchS) {
    Subject subject(text, 1, 1, &parse, &build);
    ++n;
  }
  t->parse_s.push_back(parse / n);
  t->build_s.push_back(build / n);
  t->total_s.push_back((parse + build) / n);
}

void
WarmUpSetup(const std::string& text)
{
  SetupTimes discard;
  for (int b = 0; b < kWarmupBatches; ++b) TimeSetupBatch(text, &discard);
}

// --- untraced: end-to-end metrics -------------------------------------

int
RunEndToEnd(const Options& o, const std::string& text)
{
  const Workload& w = *o.workload;
  WarmUpSetup(text);
  const Clock::time_point start = Clock::now();
  // Set-up batches interleave with the runs and take about kSetupShare
  // of the window, so both metrics sample the host over the same time.
  SetupTimes setup;
  double setup_spent = 0.0;
  std::vector<double> speed;
  Summary first;
  int runs = 0;
  int failed = 0;
  while (runs == 0 || SecondsSince(start) < o.seconds) {
    do {
      const Clock::time_point b0 = Clock::now();
      TimeSetupBatch(text, &setup);
      setup_spent += SecondsSince(b0);
    } while (setup_spent < kSetupShare * SecondsSince(start));
    double parse = 0.0;
    double build = 0.0;
    Subject subject(text, 1, 1, &parse, &build);
    const Clock::time_point t0 = Clock::now();
    experiment::ExperimentResult result = subject.Run();
    const double wall = SecondsSince(t0);
    Summary s = Summarize(w, subject, std::move(result));
    speed.push_back(s.run_s / wall);
    if (runs == 0) {
      first = s;
    } else if (s.json != first.json) {
      s.failures.push_back("report differs from the first run's");
    }
    if (!ReportFailures(s, "untraced")) ++failed;
    ++runs;
    std::fprintf(stderr, "run %d: setup %.4f s, run %.3f s\n", runs,
                 parse + build, wall);
  }
  const Summary& s = first;
  const std::vector<Metric> metrics = {
      {"sim_s_per_wall_s", Median(speed), "s/s"},
      {"setup_s", Median(setup.total_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"svr_pct", s.svr_pct, "%"},
      {"failed_pct", s.failed_pct, "%"},
      {"goodput_rps", s.goodput_rps, "req/s"},
      {"median_p50_ms", s.median_p50_ms, "ms"},
      {"worst_p99_ms", s.worst_p99_ms, "ms"},
      {"train_iters_per_s", s.train_iters_per_s, "iter/s"},
      {"avg_gpus", s.avg_gpus, "gpus"},
      {"gpu_frag_pct", s.gpu_frag_pct, "%"},
  };
  Report(failed == 0, runs, failed, metrics);
  return failed == 0 ? 0 : 1;
}

// --- traced: per-layer metrics ------------------------------------------

/** The highest quantile with >= 10 samples beyond it. */
double
TailQuantile(std::vector<double> v)
{
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t beyond = std::min<std::size_t>(10, v.size() - 1);
  return v[v.size() - 1 - beyond];
}

int
RunLayers(const Options& o, const std::string& text)
{
  const Workload& w = *o.workload;
  const Clock::time_point start = Clock::now();
  WarmUpSetup(text);
  SetupTimes setup;
  for (int b = 0; b < kSetupBatches; ++b) TimeSetupBatch(text, &setup);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::deque<ProbeLog> logs;
  Summary first;
  int runs = 0;
  int failed = 0;

  auto construct = [&](int shards, int threads) {
    double parse = 0.0;
    double build = 0.0;
    return std::make_unique<Subject>(text, shards, threads, &parse, &build);
  };
  auto check = [&](Summary s, const char* when) {
    if (runs > 0 && s.json != first.json) {
      s.failures.push_back("report differs from the untraced one");
    }
    if (!ReportFailures(s, when)) ++failed;
    if (runs == 0) first = std::move(s);
    ++runs;
  };

  // Untraced and traced runs in pairs until the time is up.
  do {
    {
      auto subject = construct(1, 1);
      const Clock::time_point t0 = Clock::now();
      experiment::ExperimentResult r = subject->Run();
      untraced_s.push_back(SecondsSince(t0));
      check(Summarize(w, *subject, std::move(r)), "untraced");
    }
    {
      auto subject = construct(1, 1);
      logs.emplace_back();
      perfbench::ArmProbe(*subject->runtimes()[0], &logs.back());
      const Clock::time_point t0 = Clock::now();
      experiment::ExperimentResult r = subject->Run();
      traced_s.push_back(SecondsSince(t0));
      check(Summarize(w, *subject, std::move(r)), "traced");
    }
  } while (SecondsSince(start) < o.seconds);

  // The shard layer, on the churn spec only: the same spec partitioned
  // into kShards shards, run on one thread and on the 2-thread worker
  // pool. Both must report the same; neither is comparable to the
  // unsharded report (the partitioned fleet is a different system).
  std::int64_t barriers = 0;
  double speedup = 0.0;
  if (w.churn) {
    std::string one_thread_json;
    double wall[2] = {0.0, 0.0};
    for (int threads = 1; threads <= 2; ++threads) {
      auto subject = construct(kShards, threads);
      if (threads == 1) subject->CountBarriers(&barriers);
      const Clock::time_point t0 = Clock::now();
      experiment::ExperimentResult r = subject->Run();
      wall[threads - 1] = SecondsSince(t0);
      Summary sh = Summarize(w, *subject, std::move(r));
      Require(&sh, sh.shards >= 2, "sharded: fewer than 2 shards");
      if (threads == 1) {
        one_thread_json = sh.json;
      } else if (sh.json != one_thread_json) {
        sh.failures.push_back("sharded report differs across threads");
      }
      if (!ReportFailures(sh, "sharded")) ++failed;
      ++runs;
    }
    speedup = wall[0] / wall[1];
  }

  // Step times pool every traced run; the simulated series repeat
  // exactly, so the first traced run's log gives them.
  std::vector<double> steps;
  std::size_t pending_max = 0;
  int collocation = 0;
  for (const ProbeLog& log : logs) {
    steps.insert(steps.end(), log.step_ms.begin(), log.step_ms.end());
    pending_max = std::max(pending_max, log.pending_events_max);
    collocation = std::max(collocation, log.collocation_max);
  }
  const ProbeLog& series = logs.front();
  double occupied = 0.0;
  double live = 0.0;
  double idle = 0.0;
  const std::size_t seconds = series.occupied_gpus.size();
  for (std::size_t t = 0; t < seconds; ++t) {
    occupied += series.occupied_gpus[t];
    live += series.live_instances[t];
    idle += series.idle_instances[t];
  }
  const Summary& s = first;
  const double occupied_avg = occupied / std::max<std::size_t>(1, seconds);

  // Single layers replayed in isolation.
  double place_us = 0.0;
  double gap_ns = 0.0;
  {
    auto subject = construct(1, 1);
    place_us = perfbench::ReplayPlacementUs(*subject->runtimes()[0]);
    const experiment::ExperimentSpec& spec = subject->spec();
    gap_ns = perfbench::ReplayArrivalGapNs(spec,
                                           spec.cluster().seed.value_or(0));
  }
  const double tick_us = perfbench::ReplayGpuTickUs(
      s.fleet_gpus, static_cast<int>(std::lround(occupied_avg)));
  const double rckm_us = perfbench::ReplayRckmTickUs(collocation);

  const double untraced = Median(untraced_s);
  const double transfers = static_cast<double>(
      s.result.fabric_storage_transfers + s.result.fabric_network_transfers);
  const std::vector<Metric> metrics = {
      {"experiment.parse_ms", Median(setup.parse_s) * 1e3, "ms"},
      {"experiment.build_ms", Median(setup.build_s) * 1e3, "ms"},
      {"sim.step_ms_p50", Median(steps), "ms"},
      {"sim.step_ms_tail", TailQuantile(steps), "ms"},
      {"sim.pending_events_max", static_cast<double>(pending_max), "count"},
      {"gpusim.fleet_gpus", static_cast<double>(s.fleet_gpus), "count"},
      {"gpusim.occupied_gpus_avg", occupied_avg, "gpus"},
      {"gpusim.live_ratio", occupied_avg / s.fleet_gpus, "ratio"},
      {"gpusim.us_per_fleet_gpu_s", untraced * 1e6 / (s.fleet_gpus * s.run_s),
       "us"},
      {"gpusim.tick_us", tick_us, "us"},
      {"runtime.live_instances_avg",
       live / std::max<std::size_t>(1, seconds), "count"},
      {"runtime.idle_instance_share", live > 0 ? idle / live : 0.0, "ratio"},
      {"rckm.collocation_max", static_cast<double>(collocation), "count"},
      {"rckm.tick_us", rckm_us, "us"},
      {"scheduler.placements", static_cast<double>(s.placements), "count"},
      {"scheduler.place_us", place_us, "us"},
      {"scaling.cold_starts", static_cast<double>(s.cold_starts), "count"},
      {"scaling.scale_ins", static_cast<double>(s.scale_ins), "count"},
      {"scaling.thrash_share",
       s.scale_outs > 0 ? static_cast<double>(s.thrashed) / s.scale_outs : 0.0,
       "ratio"},
      {"cluster.attempted", static_cast<double>(s.attempted), "count"},
      {"cluster.dropped", static_cast<double>(s.dropped), "count"},
      {"cluster.shed", static_cast<double>(s.shed), "count"},
      {"cluster.peak_queue", static_cast<double>(s.peak_queue), "count"},
      {"fabric.transfers", transfers, "count"},
      {"fabric.gb", s.result.fabric_storage_gb + s.result.fabric_network_gb,
       "GB"},
      {"fabric.stall_s_per_transfer",
       transfers > 0 ? s.result.fabric_stall_s / transfers : 0.0, "s"},
      {"chaos.injected", static_cast<double>(s.result.chaos.injected),
       "count"},
      {"chaos.recovered", static_cast<double>(s.result.chaos.recovered),
       "count"},
      {"chaos.mean_ttr_s", s.result.chaos.mean_ttr_s, "s"},
      {"workload.arrivals", static_cast<double>(s.attempted), "count"},
      {"workload.gap_ns", gap_ns, "ns"},
      {"shard.barriers", static_cast<double>(barriers), "count"},
      {"shard.speedup_2v1", speedup, "ratio"},
      {"trace.overhead_pct",
       100.0 * (Median(traced_s) - untraced) / untraced, "%"},
  };
  Report(failed == 0, runs, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  const std::string text = perfbench::SpecText(*o.workload, o.seed);
  if (o.print_spec) {
    std::printf("%s", text.c_str());
    return 0;
  }
  return o.trace ? RunLayers(o, text) : RunEndToEnd(o, text);
}
