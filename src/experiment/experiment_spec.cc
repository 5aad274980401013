#include "experiment/experiment_spec.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <type_traits>

#include "cluster/cluster.h"
#include "common/spec_text.h"
#include "models/model_catalog.h"

namespace dilu::experiment {

using spec_text::Fail;
using spec_text::FormatDouble;
using spec_text::FormatTime;
using spec_text::Tokens;

namespace {

/** Spec-format keyword of each ArrivalKind, in enum order. */
constexpr const char* kKindWords[] = {
    "constant", "poisson", "gamma", "bursty", "periodic", "sporadic", "closed",
};
static_assert(std::size(kKindWords)
                  == static_cast<std::size_t>(ArrivalKind::kClosed) + 1,
              "kKindWords needs one word per ArrivalKind");

}  // namespace

const char*
ToString(ArrivalKind kind)
{
  return kKindWords[static_cast<int>(kind)];
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
  return AddTrace(fn, ArrivalKind::kConstant, rps, duration);
}

WorkloadSpec&
ExperimentSpec::AddPoisson(int fn, double rps, TimeUs duration)
{
  return AddTrace(fn, ArrivalKind::kPoisson, rps, duration);
}

WorkloadSpec&
ExperimentSpec::AddGamma(int fn, double rps, double cv, TimeUs duration)
{
  WorkloadSpec& w = AddTrace(fn, ArrivalKind::kGamma, rps, duration);
  w.cv = cv;
  return w;
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

bool
ExperimentSpec::pinned() const
{
  return std::any_of(deploys_.begin(), deploys_.end(),
                     [](const DeploySpec& d) { return !d.on.empty(); });
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

cluster::ClusterConfig
BuildClusterConfig(const ClusterSection& c, const FabricSection& fab)
{
  cluster::ClusterConfig cl = cluster::PresetConfig(c.preset);
  if (c.nodes) cl.nodes = *c.nodes;
  if (c.gpus_per_node) cl.gpus_per_node = *c.gpus_per_node;
  if (c.scheduler) cl.scheduler = *c.scheduler;
  if (c.sharing) cl.sharing = *c.sharing;
  if (c.quota_mode) cl.quota_mode = *c.quota_mode;
  if (c.recovery) cl.recovery = *c.recovery;
  if (c.warm_starts) cl.warm_starts = *c.warm_starts;
  if (c.resource_complementarity) {
    cl.resource_complementarity = *c.resource_complementarity;
  }
  if (c.workload_affinity) cl.workload_affinity = *c.workload_affinity;
  if (c.max_tokens) cl.max_tokens = *c.max_tokens;
  if (c.seed) cl.seed = *c.seed;
  cl.fabric.enabled = fab.enabled();
  if (fab.storage_bw) cl.fabric.storage_bw_gbps = *fab.storage_bw;
  if (fab.storage_gc) cl.fabric.storage_gc_duty = *fab.storage_gc;
  if (fab.storage_devices) cl.fabric.storage_devices = *fab.storage_devices;
  if (fab.nic_rate) cl.fabric.nic_rate_gbps = *fab.nic_rate;
  if (fab.nic_burst) cl.fabric.nic_burst_gb = *fab.nic_burst;
  return cl;
}

namespace {

// --- the key grammar ---------------------------------------------------
//
// Every `key=value` of the cluster, storage, nic, deploy and workload
// lines is one Key row below: its spelling, value type, bound and
// rejection message, the field it lives in and the contexts it applies
// to. Parse and ToText both walk the rows, so a key is stated once and
// printed order is row order. A key is printed when it is set and
// differs from the default-constructed section (or always, for keys
// without a meaningful default).

/** A key's value type: how its token is read, checked and printed. */
enum class Type {
  kInt,       ///< int32 within `range`
  kSeed,      ///< uint64, digits only
  kDouble,    ///< finite double within `range`
  kTime,      ///< <int>us|ms|s within `range`
  kOnOff,     ///< on | off
  kWord,      ///< one of `words` (any word when null)
  kPreset,    ///< a cluster::kPresets name
  kModel,     ///< a model catalog name
  kClass,     ///< critical | standard | best_effort
  kTraining,  ///< the bare word `training`: no `=value`
  kGpus,      ///< distinct GPU ids >= 0, comma-separated
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/** [lo, hi], or (lo, hi] when `open`. */
struct Range {
  double lo = -kInf;
  bool open = false;
  double hi = kInf;

  bool Has(double v) const { return (open ? v > lo : v >= lo) && v <= hi; }
};

constexpr Range kPositive{0.0, true};
constexpr Range kNonNegative{0.0, false};
constexpr Range kFraction{0.0, true, 1.0};

/** A parsed value, in the member its Type uses. */
struct Value {
  std::int64_t i = 0;   ///< kInt, kTime, kOnOff, kClass, kTraining
  std::uint64_t u = 0;  ///< kSeed
  double d = 0.0;       ///< kDouble
  std::string_view s;   ///< kWord, kPreset, kModel
  std::vector<GpuId> gpus;  ///< kGpus
};

template <typename T>
void
Load(T* field, const Value& v)
{
  if constexpr (std::is_same_v<T, std::string>) {
    field->assign(v.s);
  } else if constexpr (std::is_same_v<T, std::vector<GpuId>>) {
    *field = v.gpus;
  } else if constexpr (std::is_same_v<T, double>) {
    *field = v.d;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    *field = v.u;
  } else {
    *field = static_cast<T>(v.i);  // ints, times, bool and enums
  }
}

template <typename T>
void
Load(std::optional<T>* field, const Value& v)
{
  Load(&field->emplace(), v);
}

template <typename T>
bool
Save(const T& field, Value* v)
{
  if constexpr (std::is_same_v<T, std::string>) {
    v->s = field;
  } else if constexpr (std::is_same_v<T, std::vector<GpuId>>) {
    v->gpus = field;
  } else if constexpr (std::is_same_v<T, double>) {
    v->d = field;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v->u = field;
  } else {
    v->i = static_cast<std::int64_t>(field);
  }
  return true;
}

template <typename T>
bool
Save(const std::optional<T>& field, Value* v)
{
  return field && Save(*field, v);
}

/** Reads and writes one field of section S; false = unset. */
template <typename S>
struct Access {
  void (*load)(S& s, const Value& v);
  bool (*save)(const S& s, Value* v);
};

template <typename M>
struct ClassOf;
template <typename C, typename T>
struct ClassOf<T C::*> {
  using type = C;
};

/** The field at member path `First.Rest...` (e.g. &DeploySpec::fn, then
 *  &FunctionSpec::workers). */
template <auto First, auto... Rest>
constexpr Access<typename ClassOf<decltype(First)>::type>
Field()
{
  using S = typename ClassOf<decltype(First)>::type;
  return {
      [](S& s, const Value& v) { Load(&((s.*First) .* ... .* Rest), v); },
      [](const S& s, Value* v) {
        return Save(((s.*First) .* ... .* Rest), v);
      }};
}

/** One key of the lines that fill section S. */
template <typename S>
struct Key {
  std::string_view name;
  Type type;
  Access<S> field;
  /**
   * The rejection for a bad value (kWord / kPreset / kModel:
   * "unknown <name>").
   */
  const char* msg = nullptr;
  Range range{};
  /** kWord: the allowed words, space-separated. */
  const char* words = nullptr;
  /**
   * The contexts the key applies to, as a bitmask over the deploy's
   * TaskType or the workload's ArrivalKind; 0 = all of them.
   */
  unsigned when = 0;
  /** Deploy keys: kMisplaced entry reported on the other task type. */
  int misplaced = 0;
  /** Printed even when equal to the default. */
  bool always = false;
};

template <typename E>
constexpr unsigned
Bit(E e)
{
  return 1u << static_cast<unsigned>(e);
}

const Key<ClusterSection> kClusterKeys[] = {
    {"nodes", Type::kInt, Field<&ClusterSection::nodes>(),
     "nodes must be a positive int", kPositive},
    {"gpus_per_node", Type::kInt, Field<&ClusterSection::gpus_per_node>(),
     "gpus_per_node must be a positive int", kPositive},
    {"preset", Type::kPreset, Field<&ClusterSection::preset>()},
    {"scheduler", Type::kWord, Field<&ClusterSection::scheduler>(), nullptr,
     {}, "dilu exclusive static"},
    {"sharing", Type::kWord, Field<&ClusterSection::sharing>(), nullptr, {},
     "dilu static tgs fastgs"},
    {"quota_mode", Type::kWord, Field<&ClusterSection::quota_mode>(),
     nullptr, {}, "dilu limit request full"},
    {"recovery", Type::kWord, Field<&ClusterSection::recovery>(), nullptr,
     {}, "joint greedy"},
    {"warm_starts", Type::kOnOff, Field<&ClusterSection::warm_starts>(),
     "warm_starts wants on|off"},
    {"rc", Type::kOnOff,
     Field<&ClusterSection::resource_complementarity>(), "rc wants on|off"},
    {"wa", Type::kOnOff, Field<&ClusterSection::workload_affinity>(),
     "wa wants on|off"},
    {"max_tokens", Type::kDouble, Field<&ClusterSection::max_tokens>(),
     "max_tokens must be > 0", kPositive},
    {"seed", Type::kSeed, Field<&ClusterSection::seed>(),
     "seed must be a non-negative int"},
};

const Key<FabricSection> kStorageKeys[] = {
    {"bw", Type::kDouble, Field<&FabricSection::storage_bw>(),
     "storage bw must be > 0 (GB/s)", kPositive},
    {"gc", Type::kDouble, Field<&FabricSection::storage_gc>(),
     "storage gc duty must be in [0, 0.9]", {0.0, false, 0.9}},
    {"devices", Type::kInt, Field<&FabricSection::storage_devices>(),
     "storage devices must be >= 1", kPositive},
};

const Key<FabricSection> kNicKeys[] = {
    {"rate", Type::kDouble, Field<&FabricSection::nic_rate>(),
     "nic rate must be > 0 (GB/s)", kPositive},
    {"burst", Type::kDouble, Field<&FabricSection::nic_burst>(),
     "nic burst must be > 0 (GB)", kPositive},
};

/**
 * Why a key is misplaced on a deploy of the other task type, in the
 * order they are reported. A key's presence, not its value, is the
 * mistake: `workers=1` on an inference deploy is a typo, not a no-op.
 */
const char* const kMisplaced[] = {
    "start= applies to training deploys only (inference provisions at t=0)",
    "workers/iterations/checkpoint keys apply to training deploys only "
    "(add the 'training' word)",
    "provision/scaler/shards apply to inference deploys only",
    "class/queue_cap/retries/backoff/deadline apply to inference deploys "
    "only",
};

constexpr unsigned kTrainingOnly = Bit(TaskType::kTraining);
constexpr unsigned kInferenceOnly = Bit(TaskType::kInference);
using core::FunctionSpec;

const Key<DeploySpec> kDeployKeys[] = {
    {"model", Type::kModel, Field<&DeploySpec::fn, &FunctionSpec::model>(),
     nullptr, {}, nullptr, 0, 0, true},
    {"name", Type::kWord, Field<&DeploySpec::fn, &FunctionSpec::name>()},
    {"training", Type::kTraining,
     Field<&DeploySpec::fn, &FunctionSpec::type>()},
    {"workers", Type::kInt, Field<&DeploySpec::fn, &FunctionSpec::workers>(),
     "workers must be >= 1", kPositive, nullptr, kTrainingOnly, 1},
    {"iterations", Type::kInt,
     Field<&DeploySpec::fn, &FunctionSpec::target_iterations>(),
     "iterations must be >= 0", kNonNegative, nullptr, kTrainingOnly, 1},
    {"checkpoint_every", Type::kTime,
     Field<&DeploySpec::fn, &FunctionSpec::checkpoint_every>(),
     "checkpoint_every wants a time > 0", kPositive, nullptr, kTrainingOnly,
     1},
    {"save_cost", Type::kTime,
     Field<&DeploySpec::fn, &FunctionSpec::checkpoint_save_cost>(),
     "save_cost wants a time > 0", kPositive, nullptr, kTrainingOnly, 1},
    {"start", Type::kTime, Field<&DeploySpec::start>(),
     "start wants a time (e.g. 10s)", {}, nullptr, kTrainingOnly, 0},
    {"shards", Type::kInt, Field<&DeploySpec::fn, &FunctionSpec::shards>(),
     "shards must be >= 1", kPositive, nullptr, kInferenceOnly, 2},
    {"provision", Type::kInt, Field<&DeploySpec::provision>(),
     "provision must be >= 0", kNonNegative, nullptr, kInferenceOnly, 2},
    {"scaler", Type::kWord, Field<&DeploySpec::scaler>(), nullptr, {},
     "dilu-lazy eager keep-alive", kInferenceOnly, 2},
    {"class", Type::kClass,
     Field<&DeploySpec::fn, &FunctionSpec::admission_class>(),
     "class wants critical|standard|best_effort", {}, nullptr,
     kInferenceOnly, 3},
    {"queue_cap", Type::kInt,
     Field<&DeploySpec::fn, &FunctionSpec::queue_cap>(),
     "queue_cap must be >= 1", kPositive, nullptr, kInferenceOnly, 3},
    {"retries", Type::kInt,
     Field<&DeploySpec::fn, &FunctionSpec::retry_budget>(),
     "retries must be >= 0", kNonNegative, nullptr, kInferenceOnly, 3},
    {"backoff", Type::kTime,
     Field<&DeploySpec::fn, &FunctionSpec::retry_backoff>(),
     "backoff wants a time > 0", kPositive, nullptr, kInferenceOnly, 3},
    {"deadline", Type::kTime,
     Field<&DeploySpec::fn, &FunctionSpec::deadline>(),
     "deadline wants a time > 0", kPositive, nullptr, kInferenceOnly, 3},
    {"priority", Type::kInt,
     Field<&DeploySpec::fn, &FunctionSpec::priority>(),
     "priority must be >= 0", kNonNegative},
    {"on", Type::kGpus, Field<&DeploySpec::on>(),
     "on wants distinct GPU ids >= 0, comma-separated (e.g. on=0,1)"},
};

constexpr unsigned kOpenLoop = Bit(ArrivalKind::kConstant)
    | Bit(ArrivalKind::kPoisson) | Bit(ArrivalKind::kGamma)
    | Bit(ArrivalKind::kBursty) | Bit(ArrivalKind::kPeriodic)
    | Bit(ArrivalKind::kSporadic);
constexpr unsigned kGamma = Bit(ArrivalKind::kGamma);
constexpr unsigned kBursty = Bit(ArrivalKind::kBursty);
constexpr unsigned kPeriodic = Bit(ArrivalKind::kPeriodic);
constexpr unsigned kSporadic = Bit(ArrivalKind::kSporadic);
constexpr unsigned kClosed = Bit(ArrivalKind::kClosed);

const Key<WorkloadSpec> kWorkloadKeys[] = {
    {"rps", Type::kDouble, Field<&WorkloadSpec::rps>(), "rps must be > 0",
     kPositive, nullptr, kOpenLoop, 0, true},
    {"cv", Type::kDouble, Field<&WorkloadSpec::cv>(), "cv must be > 0",
     kPositive, nullptr, kGamma, 0, true},
    {"scale", Type::kDouble, Field<&WorkloadSpec::scale>(),
     "scale must be > 0", kPositive, nullptr, kBursty},
    {"len", Type::kTime, Field<&WorkloadSpec::burst_len>(),
     "len wants a time > 0", kPositive, nullptr, kBursty},
    {"gap", Type::kTime, Field<&WorkloadSpec::burst_gap>(),
     "gap wants a time > 0", kPositive, nullptr, kBursty},
    {"amplitude", Type::kDouble, Field<&WorkloadSpec::amplitude>(),
     "amplitude must be in (0, 1]", kFraction, nullptr, kPeriodic},
    {"period", Type::kTime, Field<&WorkloadSpec::period>(),
     "period wants a time > 0", kPositive, nullptr, kPeriodic},
    {"active", Type::kDouble, Field<&WorkloadSpec::active>(),
     "active must be in (0, 1]", kFraction, nullptr, kSporadic},
    {"spike", Type::kTime, Field<&WorkloadSpec::spike>(),
     "spike wants a time > 0", kPositive, nullptr, kSporadic},
    {"clients", Type::kInt, Field<&WorkloadSpec::clients>(),
     "clients must be >= 1", kPositive, nullptr, kClosed, 0, true},
    {"think", Type::kTime, Field<&WorkloadSpec::think>(),
     "think wants a time > 0", kPositive, nullptr, kClosed, 0, true},
    {"seed", Type::kSeed, Field<&WorkloadSpec::seed>(),
     "seed must be a non-negative int"},
    {"start", Type::kTime, Field<&WorkloadSpec::start>(),
     "start wants a time (e.g. 10s)"},
    {"warmup", Type::kTime, Field<&WorkloadSpec::warmup>(),
     "warmup wants a time (e.g. 10s)"},
};

template <typename S>
bool
Applies(const Key<S>& k, unsigned context)
{
  return k.when == 0 || (k.when & context) != 0;
}

/** Is `word` one of the space-separated `words`? */
bool
IsOneOf(std::string_view word, std::string_view words)
{
  for (std::size_t pos = 0; pos <= words.size();) {
    const std::size_t end = std::min(words.find(' ', pos), words.size());
    if (words.substr(pos, end - pos) == word) return true;
    pos = end + 1;
  }
  return false;
}

/**
 * The row `tok` names — `name=<non-empty value>`, or the bare word of a
 * kTraining key — with the value in `*value`; null when none does.
 */
template <typename S, std::size_t N>
const Key<S>*
Find(const Key<S> (&keys)[N], std::string_view tok, std::string_view* value)
{
  const std::size_t eq = tok.find('=');
  const bool bare = eq == std::string_view::npos;
  if (!bare && eq + 1 == tok.size()) return nullptr;
  const std::string_view name = tok.substr(0, eq);
  *value = bare ? std::string_view() : tok.substr(eq + 1);
  for (const Key<S>& k : keys) {
    if (k.name == name && (k.type == Type::kTraining) == bare) return &k;
  }
  return nullptr;
}

/** `0,1,...`: distinct GPU ids >= 0. */
bool
ParseGpus(std::string_view value, std::vector<GpuId>* out)
{
  for (std::size_t pos = 0; pos <= value.size();) {
    const std::size_t end = std::min(value.find(',', pos), value.size());
    std::int32_t gpu = 0;
    if (!spec_text::ParseInt(value.substr(pos, end - pos), &gpu) || gpu < 0
        || std::find(out->begin(), out->end(), gpu) != out->end()) {
      return false;
    }
    out->push_back(gpu);
    pos = end + 1;
  }
  return true;
}

/** Parse `value` as `k`'s type, check its bound and store it in `*s`. */
template <typename S>
bool
Set(const Key<S>& k, std::string_view value, S* s, int line_no,
    std::string* error)
{
  Value v;
  bool ok = true;
  switch (k.type) {
    case Type::kInt: {
      std::int32_t i = 0;
      ok = spec_text::ParseInt(value, &i) && k.range.Has(i);
      v.i = i;
      break;
    }
    case Type::kSeed: ok = spec_text::ParseUint64(value, &v.u); break;
    case Type::kDouble:
      ok = spec_text::ParseDouble(value, &v.d) && k.range.Has(v.d);
      break;
    case Type::kTime:
      ok = spec_text::ParseTime(value, &v.i)
          && k.range.Has(static_cast<double>(v.i));
      break;
    case Type::kOnOff:
      ok = value == "on" || value == "off";
      v.i = value == "on" ? 1 : 0;
      break;
    case Type::kWord:
      ok = k.words == nullptr || IsOneOf(value, k.words);
      v.s = value;
      break;
    case Type::kPreset:
      ok = cluster::FindPreset(value) != nullptr;
      v.s = value;
      break;
    case Type::kModel:
      ok = models::HasModel(value);
      v.s = value;
      break;
    case Type::kClass: {
      ServiceClass c = ServiceClass::kStandard;
      ok = ParseServiceClass(value, &c);
      v.i = static_cast<std::int64_t>(c);
      break;
    }
    case Type::kTraining:
      v.i = static_cast<std::int64_t>(TaskType::kTraining);
      break;
    case Type::kGpus: ok = ParseGpus(value, &v.gpus); break;
  }
  if (!ok) {
    return Fail(error, line_no,
                k.msg != nullptr ? std::string(k.msg)
                                 : "unknown " + std::string(k.name) + " '"
                                       + std::string(value) + "'");
  }
  k.field.load(*s, v);
  return true;
}

/**
 * `k`'s value in `s` as printed; false when unset. A kTraining key's
 * text is only compared with the default: its bare word is printed.
 */
template <typename S>
bool
Text(const Key<S>& k, const S& s, std::string* text)
{
  Value v;
  if (!k.field.save(s, &v)) return false;
  switch (k.type) {
    case Type::kInt:
    case Type::kTraining: *text = std::to_string(v.i); break;
    case Type::kSeed: *text = std::to_string(v.u); break;
    case Type::kDouble: *text = FormatDouble(v.d); break;
    case Type::kTime: *text = FormatTime(v.i); break;
    case Type::kOnOff: *text = v.i != 0 ? "on" : "off"; break;
    case Type::kWord:
    case Type::kPreset:
    case Type::kModel: *text = std::string(v.s); break;
    case Type::kClass:
      *text = ToString(static_cast<ServiceClass>(v.i));
      break;
    case Type::kGpus:
      text->clear();
      for (const GpuId gpu : v.gpus) {
        *text += (text->empty() ? "" : ",") + std::to_string(gpu);
      }
      break;
  }
  return true;
}

/** Append " name=value" for every key of `s` that applies to `context`
 *  and is set to a non-default value (or is printed always). */
template <typename S, std::size_t N>
void
AppendKeys(std::string* out, const Key<S> (&keys)[N], const S& s,
           unsigned context)
{
  static const S kDefault{};
  std::string text;
  std::string fallback;
  for (const Key<S>& k : keys) {
    if (!Applies(k, context) || !Text(k, s, &text)) continue;
    if (!k.always && Text(k, kDefault, &fallback) && text == fallback) {
      continue;
    }
    *out += ' ';
    *out += k.name;
    if (k.type != Type::kTraining) *out += '=' + text;
  }
}

/**
 * Read every remaining token of a `directive` line as one of `keys`,
 * setting a bit of `*seen` (when non-null) per row present. With
 * `list`, an unknown key's rejection names the accepted ones.
 */
template <typename S, std::size_t N>
bool
ParseKeys(Tokens& toks, const Key<S> (&keys)[N], const char* directive,
          bool list, S* s, int line_no, std::string* error,
          std::uint32_t* seen = nullptr)
{
  static_assert(N <= 32, "`*seen` has one bit per key");
  std::string_view tok;
  std::string_view value;
  while (toks.Next(&tok)) {
    const Key<S>* k = Find(keys, tok, &value);
    if (k == nullptr) {
      std::string msg = std::string("unknown ") + directive + " key '"
          + std::string(tok) + "'";
      if (list) {
        for (const Key<S>& known : keys) {
          msg += &known == keys ? " (want " : "/";
          msg += std::string(known.name) + "=";
        }
        msg += ")";
      }
      return Fail(error, line_no, msg);
    }
    if (!Set(*k, value, s, line_no, error)) return false;
    if (seen != nullptr) *seen |= 1u << (k - keys);
  }
  return true;
}

bool
ParseDeployLine(Tokens& toks, int line_no, DeploySpec* d, std::string* error)
{
  std::uint32_t seen = 0;
  if (!ParseKeys(toks, kDeployKeys, "deploy", false, d, line_no, error,
                 &seen)) {
    return false;
  }
  if ((seen & 1u) == 0) {  // kDeployKeys[0] is model=
    return Fail(error, line_no, "deploy needs model=<catalog-name>");
  }
  const int none = static_cast<int>(std::size(kMisplaced));
  int misplaced = none;
  for (std::size_t i = 0; i < std::size(kDeployKeys); ++i) {
    const Key<DeploySpec>& k = kDeployKeys[i];
    if ((seen >> i & 1u) != 0 && !Applies(k, Bit(d->fn.type))) {
      misplaced = std::min(misplaced, k.misplaced);
    }
  }
  if (misplaced != none) return Fail(error, line_no, kMisplaced[misplaced]);
  if (d->on.empty()) return true;
  if (d->provision > 0 || d->start != 0) {
    return Fail(error, line_no,
                "on= is a warm launch at t=0; it cannot combine with "
                "provision= or start=");
  }
  const bool training = d->fn.type == TaskType::kTraining;
  const int units = training ? d->fn.workers : d->fn.shards;
  if (static_cast<int>(d->on.size()) != units) {
    return Fail(error, line_no,
                "on= lists " + std::to_string(d->on.size()) + " GPUs for "
                    + std::to_string(units)
                    + (training ? " workers" : " shards")
                    + "; the counts must match");
  }
  return true;
}

bool
ParseWorkloadLine(Tokens& toks, int line_no, WorkloadSpec* w,
                  std::string* error)
{
  std::string_view tok;
  if (!toks.Next(&tok)
      || !spec_text::ParseInt(spec_text::StripPrefix(tok, "fn="), &w->fn)
      || w->fn < 0) {
    return Fail(error, line_no, "workload needs fn=<deploy-index> first");
  }
  if (!toks.Next(&tok)) {
    return Fail(error, line_no, "workload needs an arrival kind");
  }
  const auto* kind = std::find(std::begin(kKindWords), std::end(kKindWords),
                               tok);
  if (kind == std::end(kKindWords)) {
    return Fail(error, line_no,
                "unknown arrival kind '" + std::string(tok) + "'");
  }
  w->kind = static_cast<ArrivalKind>(kind - kKindWords);

  std::string_view value;
  while (toks.Next(&tok)) {
    if (tok == "for") {
      if (!toks.Next(&tok) || !spec_text::ParseTime(tok, &w->duration)
          || w->duration <= 0) {
        return Fail(error, line_no, "'for' wants a time > 0");
      }
      if (toks.Next(&tok)) {
        return Fail(error, line_no,
                    "unexpected trailing '" + std::string(tok)
                        + "' ('for <time>' ends the line)");
      }
      return true;
    }
    const Key<WorkloadSpec>* k = Find(kWorkloadKeys, tok, &value);
    if (k == nullptr) {
      return Fail(error, line_no,
                  "unknown workload key '" + std::string(tok) + "'");
    }
    // A key of another arrival kind is a typo'd spec (e.g. `poisson
    // cv=2`); storing-and-ignoring it would silently run different
    // semantics than the author wrote, so reject it loudly.
    if (!Applies(*k, Bit(w->kind))) {
      return Fail(error, line_no,
                  std::string(k->name) + "= does not apply to kind '"
                      + ToString(w->kind) + "'");
    }
    if (!Set(*k, value, w, line_no, error)) return false;
  }
  return Fail(error, line_no, "workload needs a 'for <time>' window");
}

}  // namespace

std::string
ExperimentSpec::ToText() const
{
  std::string out =
      "experiment " + (name_.empty() ? "unnamed" : name_) + "\n";
  std::string cluster;
  AppendKeys(&cluster, kClusterKeys, cluster_, 0);
  if (!cluster.empty()) out += "cluster" + cluster + "\n";
  if (fabric_.storage) {
    out += "storage";
    AppendKeys(&out, kStorageKeys, fabric_, 0);
    out += "\n";
  }
  if (fabric_.nic) {
    out += "nic";
    AppendKeys(&out, kNicKeys, fabric_, 0);
    out += "\n";
  }
  for (const DeploySpec& d : deploys_) {
    out += "deploy";
    AppendKeys(&out, kDeployKeys, d, Bit(d.fn.type));
    out += "\n";
  }
  for (const WorkloadSpec& w : workloads_) {
    out += "workload fn=" + std::to_string(w.fn) + " " + ToString(w.kind);
    AppendKeys(&out, kWorkloadKeys, w, Bit(w.kind));
    out += " for " + FormatTime(w.duration) + "\n";
  }
  for (const chaos::ScenarioEvent& e : chaos_.events()) {
    out += "chaos " + chaos::FormatEventLine(e) + "\n";
  }
  if (run_for_ > 0) out += "run for " + FormatTime(run_for_) + "\n";
  if (!export_prefix_.empty()) out += "export " + export_prefix_ + "\n";
  return out;
}

bool
ExperimentSpec::Parse(const std::string& text, ExperimentSpec* out,
                      std::string* error)
{
  ExperimentSpec spec;
  std::vector<int> deploy_lines;  // for end-of-parse validation
  std::vector<int> workload_lines;
  std::vector<int> chaos_lines;
  const bool ok = spec_text::ForEachLine(
      text, nullptr, [&](int line_no, Tokens& toks) {
        std::string_view directive;
        toks.Next(&directive);
        if (directive == "experiment") {
          return spec_text::OneWord(toks, line_no,
                                    "experiment needs a name", &spec.name_,
                                    error);
        }
        if (directive == "cluster") {
          return ParseKeys(toks, kClusterKeys, "cluster", false,
                           &spec.cluster_, line_no, error);
        }
        if (directive == "storage") {
          spec.fabric_.storage = true;
          return ParseKeys(toks, kStorageKeys, "storage", true,
                           &spec.fabric_, line_no, error);
        }
        if (directive == "nic") {
          spec.fabric_.nic = true;
          return ParseKeys(toks, kNicKeys, "nic", true, &spec.fabric_,
                           line_no, error);
        }
        if (directive == "deploy") {
          deploy_lines.push_back(line_no);
          return ParseDeployLine(toks, line_no,
                                 &spec.deploys_.emplace_back(), error);
        }
        if (directive == "workload") {
          workload_lines.push_back(line_no);
          return ParseWorkloadLine(toks, line_no,
                                   &spec.workloads_.emplace_back(), error);
        }
        if (directive == "chaos") {
          chaos_lines.push_back(line_no);
          return chaos::ScenarioSpec::ParseEventLine(toks.rest(), line_no,
                                                     &spec.chaos_, error);
        }
        if (directive == "run") {
          std::string_view kw;
          std::string_view t;
          if (!toks.Next(&kw) || kw != "for" || !toks.Next(&t)
              || !spec_text::ParseTime(t, &spec.run_for_)
              || spec.run_for_ <= 0) {
            return Fail(error, line_no, "expected 'run for <time>'");
          }
          return spec_text::AtEnd(toks, line_no, error);
        }
        if (directive == "export") {
          return spec_text::OneWord(toks, line_no,
                                    "export needs a path prefix",
                                    &spec.export_prefix_, error);
        }
        return Fail(error, line_no,
                    "unknown directive '" + std::string(directive)
                        + "' (want experiment/cluster/storage/nic/deploy/"
                          "workload/chaos/run/export)");
      });
  if (!ok) return false;

  // Cross-line validation: references resolve against the deploy list
  // and the fleet, reported with the referencing line's number.
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
  const cluster::ClusterConfig fleet =
      BuildClusterConfig(spec.cluster_, spec.fabric_);
  // Pins name fleet GPUs and must fit their memory in the order the
  // driver attaches them (pinned deploys first, in deploy order), with
  // Gpu::Attach's own arithmetic: an overflow is a spec error here, not
  // a Fatal at t=0.
  const std::int64_t fleet_gpus =
      std::int64_t{fleet.nodes} * fleet.gpus_per_node;
  std::map<GpuId, double> pinned_gb;
  for (std::size_t i = 0; i < spec.deploys_.size(); ++i) {
    const DeploySpec& d = spec.deploys_[i];
    if (d.on.empty()) continue;
    const models::ModelProfile& m = models::GetModel(d.fn.model);
    const double mem_gb = d.fn.type == TaskType::kTraining
        ? m.mem_gb_training
        : m.mem_gb_inference / static_cast<double>(d.on.size());
    for (const GpuId gpu : d.on) {
      if (gpu >= fleet_gpus) {
        return Fail(error, deploy_lines[i],
                    "on= GPU " + std::to_string(gpu)
                        + " is outside the fleet of "
                        + std::to_string(fleet_gpus) + " GPUs");
      }
      double& used = pinned_gb[gpu];
      if (used + mem_gb > cluster::kGpuMemoryGb + 1e-9) {
        return Fail(error, deploy_lines[i],
                    "on= overflows GPU " + std::to_string(gpu)
                        + "'s memory: " + FormatDouble(used) + " GB pinned + "
                        + FormatDouble(mem_gb) + " GB > "
                        + FormatDouble(cluster::kGpuMemoryGb) + " GB");
      }
      used += mem_gb;
    }
  }
  const auto& events = spec.chaos_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const chaos::ScenarioEvent& e = events[i];
    const int at = chaos_lines[i];
    const std::string verb = chaos::ToString(e.kind);
    if (chaos::IsFabric(e.kind) && !spec.fabric_.enabled()) {
      return Fail(error, at,
                  verb + " needs a storage/nic line (the fabric is "
                         "disabled)");
    }
    const chaos::Operand operand = chaos::OperandOf(e.kind);
    if (operand == chaos::Operand::kGpu
        || operand == chaos::Operand::kNode) {
      const bool gpu = operand == chaos::Operand::kGpu;
      const std::int64_t size =
          std::int64_t{fleet.nodes} * (gpu ? fleet.gpus_per_node : 1);
      if (e.target >= size) {
        return Fail(error, at,
                    verb + " targets " + (gpu ? "GPU " : "node ")
                        + std::to_string(e.target) + " outside the fleet of "
                        + std::to_string(size) + (gpu ? " GPUs" : " nodes"));
      }
      continue;
    }
    if (operand != chaos::Operand::kFunction) continue;
    if (e.function >= n_deploys) {
      return Fail(error, at,
                  "chaos fn=" + std::to_string(e.function)
                      + " has no matching deploy");
    }
    const TaskType other = fn_type(e.function);
    if (other != chaos::FunctionTaskOf(e.kind)) {
      return Fail(error, at,
                  verb + " targets "
                      + (other == TaskType::kInference ? "an " : "a ")
                      + ToString(other) + " deploy");
    }
  }

  if (out != nullptr) *out = std::move(spec);
  return true;
}

}  // namespace dilu::experiment
