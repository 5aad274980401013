#include "chaos/scenario.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/spec_text.h"

namespace dilu::chaos {

namespace {

using spec_text::Fail;
using spec_text::FormatDouble;
using spec_text::FormatTime;
using spec_text::ParseDouble;
using spec_text::ParseInt;
using spec_text::ParseTime;
using spec_text::StripPrefix;

/** What follows a verb's operand and magnitude. */
enum class Window {
  kNone,
  kFor,    ///< `for <time>` (ScenarioEvent::duration)
  kEvery,  ///< `every=<time>` then an optional `save=<time>`
};

/** How the chaos verdict scores an event's recovery. */
enum class Scored {
  kNo,
  kDisruptive,  ///< displaces instances: TTR (IsDisruptive)
  kShedding,    ///< overload pressure: TTSR (IsShedding)
  kFabric,      ///< a fabric tier: TTR until its backlog drains (IsFabric)
};

/** How chaos intensity scales a verb's magnitude (ScaleMagnitude). */
enum class Scaled {
  kNo,
  kLinear,  ///< additive (surge extra RPS): m * intensity
  kExcess,  ///< a factor > 1: 1 + (m - 1) * intensity
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * One verb of the event grammar, "at <time> <verb> <operand>
 * [<magnitude>] [<window>]". The row is the single statement of how
 * the verb reads, prints, routes and scores: ParseEventLine,
 * FormatEventLine, the experiment loader's fn= cross-check, the
 * sharded driver's event routing, the chaos verdict and the sweeps'
 * chaos intensity all read it.
 */
struct Verb {
  FaultKind kind;
  const char* word;
  Operand operand;
  Scored scored = Scored::kNo;
  Scaled scaled = Scaled::kNo;
  /** Spelling before the magnitude ("x", "rps=", "rate="); null = none. */
  const char* magnitude = nullptr;
  /** The magnitude must lie strictly inside (lo, hi). */
  double lo = 0.0;
  double hi = kInf;
  Window window = Window::kNone;
  /** "<verb> needs <usage>": a bad fn=, magnitude or every= operand. */
  const char* usage = nullptr;
  /** "<verb> <range>": an out-of-range magnitude (null = usage). */
  const char* range = nullptr;
  /** Operand::kFunction: the task type the named deploy must have. */
  TaskType task = TaskType::kInference;
};

/** One row per FaultKind, in enum order. */
constexpr Verb kVerbs[] = {
    {FaultKind::kGpuFail, "fail_gpu", Operand::kGpu, Scored::kDisruptive},
    {FaultKind::kGpuRecover, "recover_gpu", Operand::kGpu},
    {FaultKind::kNodeFail, "fail_node", Operand::kNode, Scored::kDisruptive},
    {FaultKind::kNodeRecover, "recover_node", Operand::kNode},
    {FaultKind::kNodeDrain, "drain_node", Operand::kNode,
     Scored::kDisruptive},
    {FaultKind::kNodeUndrain, "undrain_node", Operand::kNode},
    {FaultKind::kGpuDegrade, "degrade_gpu", Operand::kGpu, Scored::kNo,
     Scaled::kNo, "x", 0.0, 1.0, Window::kNone,
     "x<factor> (e.g. x0.6 / x2.5)", "capacity must be in (0, 1)"},
    {FaultKind::kGpuStraggle, "straggle", Operand::kGpu, Scored::kNo,
     Scaled::kNo, "x", 1.0, kInf, Window::kNone,
     "x<factor> (e.g. x0.6 / x2.5)", "factor must be > 1 (e.g. x2.5)"},
    {FaultKind::kCheckpointEvery, "checkpoint_every", Operand::kFunction,
     Scored::kNo, Scaled::kNo, nullptr, 0.0, kInf, Window::kEvery,
     "fn=<id> every=<time>", nullptr, TaskType::kTraining},
    {FaultKind::kColdStartInflation, "inflate_coldstart", Operand::kFleet,
     Scored::kNo, Scaled::kExcess, "x", 0.0, kInf, Window::kFor,
     "x<factor> (e.g. x2.5)"},
    {FaultKind::kTrafficSurge, "surge", Operand::kFunction, Scored::kNo,
     Scaled::kLinear, "rps=", 0.0, kInf, Window::kFor,
     "fn=<id> rps=<rate> (both positive)"},
    {FaultKind::kOverload, "overload", Operand::kFunction, Scored::kShedding,
     Scaled::kExcess, "x", 1.0, kInf, Window::kFor,
     "fn=<id> x<factor> (factor > 1)"},
    {FaultKind::kThrottleAdmit, "throttle_admit", Operand::kFunction,
     Scored::kShedding, Scaled::kNo, "rate=", 0.0, kInf, Window::kFor,
     "fn=<id> rate=<req/s> (positive)"},
    {FaultKind::kLinkFail, "fail_link", Operand::kNode, Scored::kFabric,
     Scaled::kNo, nullptr, 0.0, kInf, Window::kFor},
    {FaultKind::kStorageBrownout, "storage_brownout", Operand::kFleet,
     Scored::kFabric, Scaled::kExcess, "x", 1.0, kInf, Window::kFor,
     "x<factor> (factor > 1)"},
};

/** One row per kind, in order; every operand that can be bad has usage. */
constexpr bool
WellFormed()
{
  int i = 0;
  for (const Verb& v : kVerbs) {
    if (static_cast<int>(v.kind) != i++) return false;
    const bool needs_usage = v.operand == Operand::kFunction
        || v.magnitude != nullptr || v.window == Window::kEvery;
    if (needs_usage && v.usage == nullptr) return false;
  }
  return i == static_cast<int>(FaultKind::kStorageBrownout) + 1;
}
static_assert(WellFormed(), "kVerbs: one row per FaultKind, in enum order");

const Verb&
RowOf(FaultKind kind)
{
  return kVerbs[static_cast<int>(kind)];
}

}  // namespace

const char*
ToString(FaultKind kind)
{
  return RowOf(kind).word;
}

Operand
OperandOf(FaultKind kind)
{
  return RowOf(kind).operand;
}

TaskType
FunctionTaskOf(FaultKind kind)
{
  return RowOf(kind).task;
}

bool
IsDisruptive(FaultKind kind)
{
  return RowOf(kind).scored == Scored::kDisruptive;
}

bool
IsShedding(FaultKind kind)
{
  return RowOf(kind).scored == Scored::kShedding;
}

bool
IsFabric(FaultKind kind)
{
  return RowOf(kind).scored == Scored::kFabric;
}

double
ScaleMagnitude(FaultKind kind, double magnitude, double intensity)
{
  switch (RowOf(kind).scaled) {
    case Scaled::kNo: return magnitude;
    case Scaled::kLinear: return magnitude * intensity;
    case Scaled::kExcess: return 1.0 + (magnitude - 1.0) * intensity;
  }
  return magnitude;
}

ScenarioSpec&
ScenarioSpec::FailGpu(TimeUs at, GpuId gpu)
{
  return Add({at, FaultKind::kGpuFail, gpu});
}

ScenarioSpec&
ScenarioSpec::RecoverGpu(TimeUs at, GpuId gpu)
{
  return Add({at, FaultKind::kGpuRecover, gpu});
}

ScenarioSpec&
ScenarioSpec::FailNode(TimeUs at, NodeId node)
{
  return Add({at, FaultKind::kNodeFail, node});
}

ScenarioSpec&
ScenarioSpec::RecoverNode(TimeUs at, NodeId node)
{
  return Add({at, FaultKind::kNodeRecover, node});
}

ScenarioSpec&
ScenarioSpec::DrainNode(TimeUs at, NodeId node)
{
  return Add({at, FaultKind::kNodeDrain, node});
}

ScenarioSpec&
ScenarioSpec::UndrainNode(TimeUs at, NodeId node)
{
  return Add({at, FaultKind::kNodeUndrain, node});
}

ScenarioSpec&
ScenarioSpec::DegradeGpu(TimeUs at, GpuId gpu, double capacity)
{
  return Add({at, FaultKind::kGpuDegrade, gpu, kInvalidFunction, capacity});
}

ScenarioSpec&
ScenarioSpec::StraggleGpu(TimeUs at, GpuId gpu, double factor)
{
  return Add({at, FaultKind::kGpuStraggle, gpu, kInvalidFunction, factor});
}

ScenarioSpec&
ScenarioSpec::CheckpointEvery(TimeUs at, FunctionId fn, TimeUs every,
                              TimeUs save_cost)
{
  return Add({at, FaultKind::kCheckpointEvery, -1, fn, 0.0, every, save_cost});
}

ScenarioSpec&
ScenarioSpec::InflateColdStarts(TimeUs at, double factor, TimeUs duration)
{
  return Add({at, FaultKind::kColdStartInflation, -1, kInvalidFunction,
              factor, duration});
}

ScenarioSpec&
ScenarioSpec::Surge(TimeUs at, FunctionId fn, double extra_rps,
                    TimeUs duration)
{
  return Add({at, FaultKind::kTrafficSurge, -1, fn, extra_rps, duration});
}

ScenarioSpec&
ScenarioSpec::Overload(TimeUs at, FunctionId fn, double factor,
                       TimeUs duration)
{
  return Add({at, FaultKind::kOverload, -1, fn, factor, duration});
}

ScenarioSpec&
ScenarioSpec::ThrottleAdmit(TimeUs at, FunctionId fn, double rate,
                            TimeUs duration)
{
  return Add({at, FaultKind::kThrottleAdmit, -1, fn, rate, duration});
}

ScenarioSpec&
ScenarioSpec::FailLink(TimeUs at, NodeId node, TimeUs duration)
{
  return Add({at, FaultKind::kLinkFail, node, kInvalidFunction, 0.0,
              duration});
}

ScenarioSpec&
ScenarioSpec::StorageBrownout(TimeUs at, double factor, TimeUs duration)
{
  return Add({at, FaultKind::kStorageBrownout, -1, kInvalidFunction, factor,
              duration});
}

std::vector<ScenarioEvent>
ScenarioSpec::Sorted() const
{
  std::vector<ScenarioEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at < b.at;
                   });
  return sorted;
}

std::string
FormatEventLine(const ScenarioEvent& e)
{
  const Verb& v = RowOf(e.kind);
  std::string out = "at " + FormatTime(e.at) + " " + v.word;
  switch (v.operand) {
    case Operand::kGpu:
    case Operand::kNode: out += " " + std::to_string(e.target); break;
    case Operand::kFunction: out += " fn=" + std::to_string(e.function); break;
    case Operand::kFleet: break;
  }
  if (v.magnitude != nullptr) {
    out += std::string(" ") + v.magnitude + FormatDouble(e.magnitude);
  }
  if (v.window == Window::kFor) out += " for " + FormatTime(e.duration);
  if (v.window == Window::kEvery) {
    out += " every=" + FormatTime(e.duration);
    if (e.save_cost > 0) out += " save=" + FormatTime(e.save_cost);
  }
  return out;
}

std::string
ScenarioSpec::ToText() const
{
  std::string out = "scenario " + (name_.empty() ? "unnamed" : name_) + "\n";
  for (const ScenarioEvent& e : events_) out += FormatEventLine(e) + "\n";
  return out;
}

bool
ScenarioSpec::ParseEventLine(std::string_view line, int line_no,
                             ScenarioSpec* spec, std::string* error)
{
  spec_text::Tokens toks(line);
  std::string_view at;
  std::string_view time;
  std::string_view word;
  if (!toks.Next(&at) || at != "at" || !toks.Next(&time)
      || !toks.Next(&word)) {
    return Fail(error, line_no, "expected 'at <time> <verb> ...'");
  }
  ScenarioEvent e;
  if (!ParseTime(time, &e.at)) {
    return Fail(error, line_no,
                "bad time '" + std::string(time) + "' (want <int>us|ms|s)");
  }
  const Verb* v = std::find_if(
      std::begin(kVerbs), std::end(kVerbs),
      [word](const Verb& row) { return word == row.word; });
  if (v == std::end(kVerbs)) {
    return Fail(error, line_no, "unknown verb '" + std::string(word) + "'");
  }
  e.kind = v->kind;
  // Every operand rejection names the verb first.
  const auto fail = [&](const std::string& what) {
    return Fail(error, line_no, std::string(word) + what);
  };
  const auto usage = [&] { return fail(std::string(" needs ") + v->usage); };

  std::string_view tok;
  switch (v->operand) {
    case Operand::kGpu:
    case Operand::kNode:
      if (!toks.Next(&tok) || !ParseInt(tok, &e.target) || e.target < 0) {
        return fail(" needs a non-negative id");
      }
      break;
    case Operand::kFunction:
      if (!toks.Next(&tok) || !ParseInt(StripPrefix(tok, "fn="), &e.function)
          || e.function < 0) {
        return usage();
      }
      break;
    case Operand::kFleet: break;
  }
  if (v->magnitude != nullptr) {
    if (!toks.Next(&tok)
        || !ParseDouble(StripPrefix(tok, v->magnitude), &e.magnitude)) {
      return usage();
    }
    if (e.magnitude <= v->lo || e.magnitude >= v->hi) {
      if (v->range == nullptr) return usage();
      return fail(std::string(" ") + v->range);
    }
  }
  if (v->window == Window::kFor) {
    std::string_view kw;
    if (!toks.Next(&kw) || kw != "for" || !toks.Next(&tok)
        || !ParseTime(tok, &e.duration)) {
      return fail(" needs 'for <time>'");
    }
  }
  if (v->window == Window::kEvery) {
    if (!toks.Next(&tok) || !ParseTime(StripPrefix(tok, "every="), &e.duration)
        || e.duration <= 0) {
      return usage();
    }
    // Optional save=<time>: the snapshot pauses the job this long.
    if (toks.Next(&tok)
        && (!ParseTime(StripPrefix(tok, "save="), &e.save_cost)
            || e.save_cost <= 0)) {
      return fail(" save=<time> must be positive");
    }
  }
  if (!spec_text::AtEnd(toks, line_no, error)) return false;
  spec->Add(e);
  return true;
}

bool
ScenarioSpec::Parse(const std::string& text, ScenarioSpec* out,
                    std::string* error)
{
  ScenarioSpec spec;
  const bool ok = spec_text::ForEachLine(
      text, nullptr, [&](int line_no, spec_text::Tokens& toks) {
        const std::string_view line = toks.rest();
        std::string_view first;
        toks.Next(&first);
        if (first != "scenario") {
          return ParseEventLine(line, line_no, &spec, error);
        }
        return spec_text::OneWord(toks, line_no, "scenario needs a name",
                                  &spec.name_, error);
      });
  if (!ok) return false;
  if (out != nullptr) *out = std::move(spec);
  return true;
}

}  // namespace dilu::chaos
