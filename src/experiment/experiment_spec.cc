#include "experiment/experiment_spec.h"

#include <algorithm>
#include <sstream>

#include "common/spec_text.h"
#include "models/model_catalog.h"

namespace dilu::experiment {

using spec_text::Fail;
using spec_text::FormatDouble;
using spec_text::FormatTime;
using spec_text::ParseDouble;
using spec_text::ParseInt;
using spec_text::ParseTime;
using spec_text::ParseUint64;
using spec_text::StripPrefix;

const char*
ToString(ArrivalKind kind)
{
  switch (kind) {
    case ArrivalKind::kConstant: return "constant";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kGamma: return "gamma";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kPeriodic: return "periodic";
    case ArrivalKind::kSporadic: return "sporadic";
    case ArrivalKind::kClosed: return "closed";
  }
  return "?";
}

DeploySpec&
ExperimentSpec::AddInference(const std::string& model)
{
  DeploySpec d;
  d.fn.model = model;
  d.fn.type = TaskType::kInference;
  deploys_.push_back(std::move(d));
  return deploys_.back();
}

DeploySpec&
ExperimentSpec::AddTraining(const std::string& model, int workers,
                            std::int64_t iterations)
{
  DeploySpec d;
  d.fn.model = model;
  d.fn.type = TaskType::kTraining;
  d.fn.workers = workers;
  d.fn.target_iterations = iterations;
  deploys_.push_back(std::move(d));
  return deploys_.back();
}

WorkloadSpec&
ExperimentSpec::AddConstant(int fn, double rps, TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kConstant;
  w.rps = rps;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddPoisson(int fn, double rps, TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kPoisson;
  w.rps = rps;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddGamma(int fn, double rps, double cv, TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kGamma;
  w.rps = rps;
  w.cv = cv;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddTrace(int fn, ArrivalKind kind, double rps,
                         TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = kind;
  w.rps = rps;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

WorkloadSpec&
ExperimentSpec::AddClosedLoop(int fn, int clients, TimeUs think,
                              TimeUs duration)
{
  WorkloadSpec w;
  w.fn = fn;
  w.kind = ArrivalKind::kClosed;
  w.clients = clients;
  w.think = think;
  w.duration = duration;
  workloads_.push_back(w);
  return workloads_.back();
}

ExperimentSpec&
ExperimentSpec::RunFor(TimeUs duration)
{
  run_for_ = duration;
  return *this;
}

ExperimentSpec&
ExperimentSpec::ExportTo(std::string prefix)
{
  export_prefix_ = std::move(prefix);
  return *this;
}

TimeUs
ExperimentSpec::EffectiveRunFor() const
{
  if (run_for_ > 0) return run_for_;
  TimeUs last = 0;
  for (const WorkloadSpec& w : workloads_) last = std::max(last, w.end());
  for (const chaos::ScenarioEvent& e : chaos_.events()) {
    last = std::max(last, e.at + e.duration);
  }
  for (const DeploySpec& d : deploys_) last = std::max(last, d.start);
  return last + Sec(5);
}

std::string
ExperimentSpec::ToText() const
{
  std::ostringstream out;
  out << "experiment " << (name_.empty() ? "unnamed" : name_) << "\n";

  {
    std::ostringstream c;
    const ClusterSection& k = cluster_;
    if (k.nodes) c << " nodes=" << *k.nodes;
    if (k.gpus_per_node) c << " gpus_per_node=" << *k.gpus_per_node;
    if (k.preset != "dilu") c << " preset=" << k.preset;
    if (k.scheduler) c << " scheduler=" << *k.scheduler;
    if (k.sharing) c << " sharing=" << *k.sharing;
    if (k.quota_mode) c << " quota_mode=" << *k.quota_mode;
    if (k.recovery) c << " recovery=" << *k.recovery;
    if (k.warm_starts) {
      c << " warm_starts=" << (*k.warm_starts ? "on" : "off");
    }
    if (k.resource_complementarity) {
      c << " rc=" << (*k.resource_complementarity ? "on" : "off");
    }
    if (k.workload_affinity) {
      c << " wa=" << (*k.workload_affinity ? "on" : "off");
    }
    if (k.seed) c << " seed=" << *k.seed;
    const std::string body = c.str();
    if (!body.empty()) out << "cluster" << body << "\n";
  }

  if (fabric_.storage) {
    out << "storage";
    if (fabric_.storage_bw) out << " bw=" << FormatDouble(*fabric_.storage_bw);
    if (fabric_.storage_gc) out << " gc=" << FormatDouble(*fabric_.storage_gc);
    if (fabric_.storage_devices) out << " devices=" << *fabric_.storage_devices;
    out << "\n";
  }
  if (fabric_.nic) {
    out << "nic";
    if (fabric_.nic_rate) out << " rate=" << FormatDouble(*fabric_.nic_rate);
    if (fabric_.nic_burst) out << " burst=" << FormatDouble(*fabric_.nic_burst);
    out << "\n";
  }

  for (const DeploySpec& d : deploys_) {
    out << "deploy model=" << d.fn.model;
    if (!d.fn.name.empty()) out << " name=" << d.fn.name;
    if (d.fn.type == TaskType::kTraining) {
      out << " training";
      if (d.fn.workers != 1) out << " workers=" << d.fn.workers;
      if (d.fn.target_iterations > 0) {
        out << " iterations=" << d.fn.target_iterations;
      }
      if (d.fn.checkpoint_every > 0) {
        out << " checkpoint_every=" << FormatTime(d.fn.checkpoint_every);
      }
      if (d.fn.checkpoint_save_cost > 0) {
        out << " save_cost=" << FormatTime(d.fn.checkpoint_save_cost);
      }
      if (d.start > 0) out << " start=" << FormatTime(d.start);
    } else {
      if (d.fn.shards != 1) out << " shards=" << d.fn.shards;
      if (d.provision > 0) out << " provision=" << d.provision;
      if (!d.scaler.empty()) out << " scaler=" << d.scaler;
      if (d.fn.admission_class != ServiceClass::kStandard) {
        out << " class=" << ToString(d.fn.admission_class);
      }
      if (d.fn.queue_cap > 0) out << " queue_cap=" << d.fn.queue_cap;
      if (d.fn.retry_budget > 0) out << " retries=" << d.fn.retry_budget;
      if (d.fn.retry_backoff != Ms(100)) {
        out << " backoff=" << FormatTime(d.fn.retry_backoff);
      }
      if (d.fn.deadline > 0) out << " deadline=" << FormatTime(d.fn.deadline);
    }
    out << "\n";
  }

  for (const WorkloadSpec& w : workloads_) {
    out << "workload fn=" << w.fn << " " << ToString(w.kind);
    switch (w.kind) {
      case ArrivalKind::kConstant:
      case ArrivalKind::kPoisson:
        out << " rps=" << FormatDouble(w.rps);
        break;
      case ArrivalKind::kGamma:
        out << " rps=" << FormatDouble(w.rps) << " cv="
            << FormatDouble(w.cv);
        break;
      case ArrivalKind::kBursty:
        out << " rps=" << FormatDouble(w.rps);
        if (w.scale != 4.0) out << " scale=" << FormatDouble(w.scale);
        if (w.burst_len != Sec(30)) {
          out << " len=" << FormatTime(w.burst_len);
        }
        if (w.burst_gap != Sec(90)) {
          out << " gap=" << FormatTime(w.burst_gap);
        }
        break;
      case ArrivalKind::kPeriodic:
        out << " rps=" << FormatDouble(w.rps);
        if (w.amplitude != 0.8) {
          out << " amplitude=" << FormatDouble(w.amplitude);
        }
        if (w.period != Sec(120)) out << " period=" << FormatTime(w.period);
        break;
      case ArrivalKind::kSporadic:
        out << " rps=" << FormatDouble(w.rps);
        if (w.active != 0.15) out << " active=" << FormatDouble(w.active);
        if (w.spike != Sec(8)) out << " spike=" << FormatTime(w.spike);
        break;
      case ArrivalKind::kClosed:
        out << " clients=" << w.clients << " think=" << FormatTime(w.think);
        break;
    }
    if (w.seed) out << " seed=" << *w.seed;
    if (w.start > 0) out << " start=" << FormatTime(w.start);
    if (w.warmup > 0) out << " warmup=" << FormatTime(w.warmup);
    out << " for " << FormatTime(w.duration) << "\n";
  }

  for (const chaos::ScenarioEvent& e : chaos_.events()) {
    out << "chaos " << chaos::FormatEventLine(e) << "\n";
  }

  if (run_for_ > 0) out << "run for " << FormatTime(run_for_) << "\n";
  if (!export_prefix_.empty()) out << "export " << export_prefix_ << "\n";
  return out.str();
}

namespace {

bool
OneOf(const std::string& v, std::initializer_list<const char*> allowed)
{
  for (const char* a : allowed) {
    if (v == a) return true;
  }
  return false;
}

/** Parse "on" / "off" into bool. */
bool
ParseOnOff(const std::string& tok, bool* out)
{
  if (tok == "on") {
    *out = true;
    return true;
  }
  if (tok == "off") {
    *out = false;
    return true;
  }
  return false;
}

bool
ParseClusterLine(std::istringstream& toks, int line_no,
                 ClusterSection* cluster, std::string* error)
{
  std::string tok;
  while (toks >> tok) {
    std::string v;
    std::int32_t i = 0;
    std::uint64_t u = 0;
    bool b = false;
    if (!(v = StripPrefix(tok, "nodes=")).empty()) {
      if (!ParseInt(v, &i) || i <= 0) {
        return Fail(error, line_no, "nodes must be a positive int");
      }
      cluster->nodes = i;
    } else if (!(v = StripPrefix(tok, "gpus_per_node=")).empty()) {
      if (!ParseInt(v, &i) || i <= 0) {
        return Fail(error, line_no, "gpus_per_node must be a positive int");
      }
      cluster->gpus_per_node = i;
    } else if (!(v = StripPrefix(tok, "preset=")).empty()) {
      if (!OneOf(v, {"dilu", "exclusive", "mps-l", "mps-r", "tgs",
                     "fastgs", "infless-l", "infless-r"})) {
        return Fail(error, line_no, "unknown preset '" + v + "'");
      }
      cluster->preset = v;
    } else if (!(v = StripPrefix(tok, "scheduler=")).empty()) {
      if (!OneOf(v, {"dilu", "exclusive", "static"})) {
        return Fail(error, line_no, "unknown scheduler '" + v + "'");
      }
      cluster->scheduler = v;
    } else if (!(v = StripPrefix(tok, "sharing=")).empty()) {
      if (!OneOf(v, {"dilu", "static", "tgs", "fastgs"})) {
        return Fail(error, line_no, "unknown sharing '" + v + "'");
      }
      cluster->sharing = v;
    } else if (!(v = StripPrefix(tok, "quota_mode=")).empty()) {
      if (!OneOf(v, {"dilu", "limit", "request", "full"})) {
        return Fail(error, line_no, "unknown quota_mode '" + v + "'");
      }
      cluster->quota_mode = v;
    } else if (!(v = StripPrefix(tok, "recovery=")).empty()) {
      if (!OneOf(v, {"joint", "greedy"})) {
        return Fail(error, line_no, "unknown recovery '" + v + "'");
      }
      cluster->recovery = v;
    } else if (!(v = StripPrefix(tok, "warm_starts=")).empty()) {
      if (!ParseOnOff(v, &b)) {
        return Fail(error, line_no, "warm_starts wants on|off");
      }
      cluster->warm_starts = b;
    } else if (!(v = StripPrefix(tok, "rc=")).empty()) {
      if (!ParseOnOff(v, &b)) {
        return Fail(error, line_no, "rc wants on|off");
      }
      cluster->resource_complementarity = b;
    } else if (!(v = StripPrefix(tok, "wa=")).empty()) {
      if (!ParseOnOff(v, &b)) {
        return Fail(error, line_no, "wa wants on|off");
      }
      cluster->workload_affinity = b;
    } else if (!(v = StripPrefix(tok, "seed=")).empty()) {
      if (!ParseUint64(v, &u)) {
        return Fail(error, line_no, "seed must be a non-negative int");
      }
      cluster->seed = u;
    } else {
      return Fail(error, line_no, "unknown cluster key '" + tok + "'");
    }
  }
  return true;
}

bool
ParseDeployLine(std::istringstream& toks, int line_no, DeploySpec* d,
                std::string* error)
{
  std::string tok;
  bool have_model = false;
  bool have_class = false;
  bool have_backoff = false;
  // A key's presence, not its value, makes it wrong on the other task
  // type: `workers=1` on an inference deploy is a typo, not a no-op.
  bool have_workers = false;
  bool have_iterations = false;
  bool have_start = false;
  bool have_provision = false;
  bool have_retries = false;
  bool have_shards = false;
  while (toks >> tok) {
    std::string v;
    std::int32_t i = 0;
    TimeUs t = 0;
    if (tok == "training") {
      d->fn.type = TaskType::kTraining;
    } else if (!(v = StripPrefix(tok, "model=")).empty()) {
      if (!models::HasModel(v)) {
        return Fail(error, line_no, "unknown model '" + v + "'");
      }
      d->fn.model = v;
      have_model = true;
    } else if (!(v = StripPrefix(tok, "name=")).empty()) {
      d->fn.name = v;
    } else if (!(v = StripPrefix(tok, "shards=")).empty()) {
      if (!ParseInt(v, &i) || i < 1) {
        return Fail(error, line_no, "shards must be >= 1");
      }
      d->fn.shards = i;
      have_shards = true;
    } else if (!(v = StripPrefix(tok, "workers=")).empty()) {
      if (!ParseInt(v, &i) || i < 1) {
        return Fail(error, line_no, "workers must be >= 1");
      }
      d->fn.workers = i;
      have_workers = true;
    } else if (!(v = StripPrefix(tok, "iterations=")).empty()) {
      if (!ParseInt(v, &i) || i < 0) {
        return Fail(error, line_no, "iterations must be >= 0");
      }
      d->fn.target_iterations = i;
      have_iterations = true;
    } else if (!(v = StripPrefix(tok, "checkpoint_every=")).empty()) {
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "checkpoint_every wants a time > 0");
      }
      d->fn.checkpoint_every = t;
    } else if (!(v = StripPrefix(tok, "save_cost=")).empty()) {
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "save_cost wants a time > 0");
      }
      d->fn.checkpoint_save_cost = t;
    } else if (!(v = StripPrefix(tok, "provision=")).empty()) {
      if (!ParseInt(v, &i) || i < 0) {
        return Fail(error, line_no, "provision must be >= 0");
      }
      d->provision = i;
      have_provision = true;
    } else if (!(v = StripPrefix(tok, "scaler=")).empty()) {
      if (!OneOf(v, {"dilu-lazy", "eager", "keep-alive"})) {
        return Fail(error, line_no, "unknown scaler '" + v + "'");
      }
      d->scaler = v;
    } else if (!(v = StripPrefix(tok, "class=")).empty()) {
      if (!ParseServiceClass(v, &d->fn.admission_class)) {
        return Fail(error, line_no,
                    "class wants critical|standard|best_effort");
      }
      have_class = true;
    } else if (!(v = StripPrefix(tok, "queue_cap=")).empty()) {
      if (!ParseInt(v, &i) || i < 1) {
        return Fail(error, line_no, "queue_cap must be >= 1");
      }
      d->fn.queue_cap = i;
    } else if (!(v = StripPrefix(tok, "retries=")).empty()) {
      if (!ParseInt(v, &i) || i < 0) {
        return Fail(error, line_no, "retries must be >= 0");
      }
      d->fn.retry_budget = i;
      have_retries = true;
    } else if (!(v = StripPrefix(tok, "backoff=")).empty()) {
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "backoff wants a time > 0");
      }
      d->fn.retry_backoff = t;
      have_backoff = true;
    } else if (!(v = StripPrefix(tok, "deadline=")).empty()) {
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "deadline wants a time > 0");
      }
      d->fn.deadline = t;
    } else if (!(v = StripPrefix(tok, "start=")).empty()) {
      if (!ParseTime(v, &t)) {
        return Fail(error, line_no, "start wants a time (e.g. 10s)");
      }
      d->start = t;
      have_start = true;
    } else {
      return Fail(error, line_no, "unknown deploy key '" + tok + "'");
    }
  }
  if (!have_model) {
    return Fail(error, line_no, "deploy needs model=<catalog-name>");
  }
  if (d->fn.type == TaskType::kInference) {
    if (have_start) {
      return Fail(error, line_no,
                  "start= applies to training deploys only "
                  "(inference provisions at t=0)");
    }
    if (have_workers || have_iterations || d->fn.checkpoint_every > 0
        || d->fn.checkpoint_save_cost > 0) {
      return Fail(error, line_no,
                  "workers/iterations/checkpoint keys apply to "
                  "training deploys only (add the 'training' word)");
    }
  } else {
    if (have_provision || !d->scaler.empty() || have_shards) {
      return Fail(error, line_no,
                  "provision/scaler/shards apply to inference deploys "
                  "only");
    }
    if (have_class || have_backoff || d->fn.queue_cap > 0
        || have_retries || d->fn.deadline > 0) {
      return Fail(error, line_no,
                  "class/queue_cap/retries/backoff/deadline apply to "
                  "inference deploys only");
    }
  }
  return true;
}

bool
ParseWorkloadLine(std::istringstream& toks, int line_no, WorkloadSpec* w,
                  std::string* error)
{
  std::string tok;
  std::string v;
  std::int32_t i = 0;
  if (!(toks >> tok) || (v = StripPrefix(tok, "fn=")).empty()
      || !ParseInt(v, &i) || i < 0) {
    return Fail(error, line_no,
                "workload needs fn=<deploy-index> first");
  }
  w->fn = i;
  if (!(toks >> tok)) {
    return Fail(error, line_no, "workload needs an arrival kind");
  }
  if (tok == "constant") {
    w->kind = ArrivalKind::kConstant;
  } else if (tok == "poisson") {
    w->kind = ArrivalKind::kPoisson;
  } else if (tok == "gamma") {
    w->kind = ArrivalKind::kGamma;
  } else if (tok == "bursty") {
    w->kind = ArrivalKind::kBursty;
  } else if (tok == "periodic") {
    w->kind = ArrivalKind::kPeriodic;
  } else if (tok == "sporadic") {
    w->kind = ArrivalKind::kSporadic;
  } else if (tok == "closed") {
    w->kind = ArrivalKind::kClosed;
  } else {
    return Fail(error, line_no, "unknown arrival kind '" + tok + "'");
  }

  // A key that belongs to a different arrival kind is a typo'd spec
  // (e.g. `poisson cv=2`); storing-and-ignoring it would silently run
  // different semantics than the author wrote, so reject it loudly.
  const auto requires_kind = [&](const char* key,
                                 std::initializer_list<ArrivalKind> ks) {
    for (const ArrivalKind k : ks) {
      if (w->kind == k) return true;
    }
    Fail(error, line_no,
         std::string(key) + " does not apply to kind '"
             + ToString(w->kind) + "'");
    return false;
  };
  const std::initializer_list<ArrivalKind> kOpenKinds = {
      ArrivalKind::kConstant, ArrivalKind::kPoisson, ArrivalKind::kGamma,
      ArrivalKind::kBursty,   ArrivalKind::kPeriodic,
      ArrivalKind::kSporadic};

  bool have_for = false;
  while (toks >> tok) {
    double x = 0.0;
    TimeUs t = 0;
    std::uint64_t u = 0;
    if (tok == "for") {
      if (!(toks >> tok) || !ParseTime(tok, &t) || t <= 0) {
        return Fail(error, line_no, "'for' wants a time > 0");
      }
      w->duration = t;
      have_for = true;
      if (toks >> tok) {
        return Fail(error, line_no,
                    "unexpected trailing '" + tok + "' ('for <time>' "
                    "ends the line)");
      }
      break;
    }
    if (!(v = StripPrefix(tok, "rps=")).empty()) {
      if (!requires_kind("rps=", kOpenKinds)) return false;
      if (!ParseDouble(v, &x) || x <= 0.0) {
        return Fail(error, line_no, "rps must be > 0");
      }
      w->rps = x;
    } else if (!(v = StripPrefix(tok, "cv=")).empty()) {
      if (!requires_kind("cv=", {ArrivalKind::kGamma})) return false;
      if (!ParseDouble(v, &x) || x <= 0.0) {
        return Fail(error, line_no, "cv must be > 0");
      }
      w->cv = x;
    } else if (!(v = StripPrefix(tok, "scale=")).empty()) {
      if (!requires_kind("scale=", {ArrivalKind::kBursty})) return false;
      if (!ParseDouble(v, &x) || x <= 0.0) {
        return Fail(error, line_no, "scale must be > 0");
      }
      w->scale = x;
    } else if (!(v = StripPrefix(tok, "len=")).empty()) {
      if (!requires_kind("len=", {ArrivalKind::kBursty})) return false;
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "len wants a time > 0");
      }
      w->burst_len = t;
    } else if (!(v = StripPrefix(tok, "gap=")).empty()) {
      if (!requires_kind("gap=", {ArrivalKind::kBursty})) return false;
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "gap wants a time > 0");
      }
      w->burst_gap = t;
    } else if (!(v = StripPrefix(tok, "amplitude=")).empty()) {
      if (!requires_kind("amplitude=", {ArrivalKind::kPeriodic})) {
        return false;
      }
      if (!ParseDouble(v, &x) || x <= 0.0 || x > 1.0) {
        return Fail(error, line_no, "amplitude must be in (0, 1]");
      }
      w->amplitude = x;
    } else if (!(v = StripPrefix(tok, "period=")).empty()) {
      if (!requires_kind("period=", {ArrivalKind::kPeriodic})) {
        return false;
      }
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "period wants a time > 0");
      }
      w->period = t;
    } else if (!(v = StripPrefix(tok, "active=")).empty()) {
      if (!requires_kind("active=", {ArrivalKind::kSporadic})) {
        return false;
      }
      if (!ParseDouble(v, &x) || x <= 0.0 || x > 1.0) {
        return Fail(error, line_no, "active must be in (0, 1]");
      }
      w->active = x;
    } else if (!(v = StripPrefix(tok, "spike=")).empty()) {
      if (!requires_kind("spike=", {ArrivalKind::kSporadic})) {
        return false;
      }
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "spike wants a time > 0");
      }
      w->spike = t;
    } else if (!(v = StripPrefix(tok, "clients=")).empty()) {
      if (!requires_kind("clients=", {ArrivalKind::kClosed})) {
        return false;
      }
      if (!ParseInt(v, &i) || i < 1) {
        return Fail(error, line_no, "clients must be >= 1");
      }
      w->clients = i;
    } else if (!(v = StripPrefix(tok, "think=")).empty()) {
      if (!requires_kind("think=", {ArrivalKind::kClosed})) {
        return false;
      }
      if (!ParseTime(v, &t) || t <= 0) {
        return Fail(error, line_no, "think wants a time > 0");
      }
      w->think = t;
    } else if (!(v = StripPrefix(tok, "seed=")).empty()) {
      if (!ParseUint64(v, &u)) {
        return Fail(error, line_no, "seed must be a non-negative int");
      }
      w->seed = u;
    } else if (!(v = StripPrefix(tok, "start=")).empty()) {
      if (!ParseTime(v, &t)) {
        return Fail(error, line_no, "start wants a time (e.g. 10s)");
      }
      w->start = t;
    } else if (!(v = StripPrefix(tok, "warmup=")).empty()) {
      if (!ParseTime(v, &t)) {
        return Fail(error, line_no, "warmup wants a time (e.g. 10s)");
      }
      w->warmup = t;
    } else {
      return Fail(error, line_no, "unknown workload key '" + tok + "'");
    }
  }
  if (!have_for) {
    return Fail(error, line_no, "workload needs a 'for <time>' window");
  }
  return true;
}

}  // namespace

bool
ExperimentSpec::Parse(const std::string& text, ExperimentSpec* out,
                      std::string* error)
{
  ExperimentSpec spec;
  std::vector<int> workload_lines;  // for end-of-parse validation
  std::vector<int> chaos_lines;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = spec_text::StripComment(line);
    std::istringstream toks(line);
    std::string tok;
    if (!(toks >> tok)) continue;  // blank (or comment-only) line
    if (tok == "experiment") {
      std::string name;
      if (!(toks >> name)) {
        return Fail(error, line_no, "experiment needs a name");
      }
      std::string rest;
      if (toks >> rest) {
        return Fail(error, line_no, "unexpected trailing '" + rest + "'");
      }
      spec.set_name(name);
    } else if (tok == "cluster") {
      if (!ParseClusterLine(toks, line_no, &spec.cluster_, error)) {
        return false;
      }
    } else if (tok == "storage") {
      spec.fabric_.storage = true;
      std::string key;
      while (toks >> key) {
        std::string v;
        double x = 0.0;
        std::int32_t i = 0;
        if (!(v = StripPrefix(key, "bw=")).empty()) {
          if (!ParseDouble(v, &x) || x <= 0.0) {
            return Fail(error, line_no, "storage bw must be > 0 (GB/s)");
          }
          spec.fabric_.storage_bw = x;
        } else if (!(v = StripPrefix(key, "gc=")).empty()) {
          if (!ParseDouble(v, &x) || x < 0.0 || x > 0.9) {
            return Fail(error, line_no,
                        "storage gc duty must be in [0, 0.9]");
          }
          spec.fabric_.storage_gc = x;
        } else if (!(v = StripPrefix(key, "devices=")).empty()) {
          if (!ParseInt(v, &i) || i < 1) {
            return Fail(error, line_no, "storage devices must be >= 1");
          }
          spec.fabric_.storage_devices = i;
        } else {
          return Fail(error, line_no,
                      "unknown storage key '" + key
                          + "' (want bw=/gc=/devices=)");
        }
      }
    } else if (tok == "nic") {
      spec.fabric_.nic = true;
      std::string key;
      while (toks >> key) {
        std::string v;
        double x = 0.0;
        if (!(v = StripPrefix(key, "rate=")).empty()) {
          if (!ParseDouble(v, &x) || x <= 0.0) {
            return Fail(error, line_no, "nic rate must be > 0 (GB/s)");
          }
          spec.fabric_.nic_rate = x;
        } else if (!(v = StripPrefix(key, "burst=")).empty()) {
          if (!ParseDouble(v, &x) || x <= 0.0) {
            return Fail(error, line_no, "nic burst must be > 0 (GB)");
          }
          spec.fabric_.nic_burst = x;
        } else {
          return Fail(error, line_no,
                      "unknown nic key '" + key + "' (want rate=/burst=)");
        }
      }
    } else if (tok == "deploy") {
      DeploySpec d;
      if (!ParseDeployLine(toks, line_no, &d, error)) return false;
      spec.deploys_.push_back(std::move(d));
    } else if (tok == "workload") {
      WorkloadSpec w;
      if (!ParseWorkloadLine(toks, line_no, &w, error)) return false;
      spec.workloads_.push_back(w);
      workload_lines.push_back(line_no);
    } else if (tok == "chaos") {
      std::string rest;
      std::getline(toks, rest);
      if (!chaos::ScenarioSpec::ParseEventLine(rest, line_no,
                                               &spec.chaos_, error)) {
        return false;
      }
      chaos_lines.push_back(line_no);
    } else if (tok == "run") {
      std::string kw;
      std::string t;
      TimeUs dur = 0;
      if (!(toks >> kw >> t) || kw != "for" || !ParseTime(t, &dur)
          || dur <= 0) {
        return Fail(error, line_no, "expected 'run for <time>'");
      }
      std::string rest;
      if (toks >> rest) {
        return Fail(error, line_no, "unexpected trailing '" + rest + "'");
      }
      spec.run_for_ = dur;
    } else if (tok == "export") {
      std::string prefix;
      if (!(toks >> prefix)) {
        return Fail(error, line_no, "export needs a path prefix");
      }
      std::string rest;
      if (toks >> rest) {
        return Fail(error, line_no, "unexpected trailing '" + rest + "'");
      }
      spec.export_prefix_ = prefix;
    } else {
      return Fail(error, line_no,
                  "unknown directive '" + tok
                      + "' (want experiment/cluster/storage/nic/deploy/"
                        "workload/chaos/run/export)");
    }
  }

  // Cross-line validation: references resolve against the deploy list,
  // reported with the referencing line's number.
  const auto n_deploys = static_cast<std::int64_t>(spec.deploys_.size());
  const auto fn_type = [&](std::int64_t fn) {
    return spec.deploys_[static_cast<std::size_t>(fn)].fn.type;
  };
  for (std::size_t i = 0; i < spec.workloads_.size(); ++i) {
    const WorkloadSpec& w = spec.workloads_[i];
    const int at = workload_lines[i];
    if (w.fn >= n_deploys) {
      return Fail(error, at,
                  "workload fn=" + std::to_string(w.fn)
                      + " has no matching deploy (have "
                      + std::to_string(n_deploys) + ")");
    }
    if (fn_type(w.fn) != TaskType::kInference) {
      return Fail(error, at,
                  "workload fn=" + std::to_string(w.fn)
                      + " targets a training deploy");
    }
    if (w.kind == ArrivalKind::kClosed) {
      for (const WorkloadSpec& other : spec.workloads_) {
        if (other.fn == w.fn && &other != &w) {
          return Fail(error, at,
                      "fn=" + std::to_string(w.fn)
                          + " is driven closed-loop; it cannot carry "
                            "another workload");
        }
      }
    }
  }
  const auto& events = spec.chaos_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const chaos::ScenarioEvent& e = events[i];
    const int at = chaos_lines[i];
    if (chaos::IsFabric(e.kind) && !spec.fabric_.enabled()) {
      return Fail(error, at,
                  std::string(chaos::ToString(e.kind))
                      + " needs a storage/nic line (the fabric is "
                        "disabled)");
    }
    if (e.kind == chaos::FaultKind::kTrafficSurge
        || e.kind == chaos::FaultKind::kCheckpointEvery
        || chaos::IsShedding(e.kind)) {
      if (e.function >= n_deploys) {
        return Fail(error, at,
                    "chaos fn=" + std::to_string(e.function)
                        + " has no matching deploy");
      }
      if (e.kind == chaos::FaultKind::kTrafficSurge
          && fn_type(e.function) != TaskType::kInference) {
        return Fail(error, at, "surge targets a training deploy");
      }
      if (e.kind == chaos::FaultKind::kCheckpointEvery
          && fn_type(e.function) != TaskType::kTraining) {
        return Fail(error, at,
                    "checkpoint_every targets an inference deploy");
      }
      if (chaos::IsShedding(e.kind)
          && fn_type(e.function) != TaskType::kInference) {
        return Fail(error, at,
                    std::string(chaos::ToString(e.kind))
                        + " targets a training deploy");
      }
    }
  }

  spec.chaos_.set_name(spec.name_);
  if (out != nullptr) *out = std::move(spec);
  return true;
}

}  // namespace dilu::experiment
