/**
 * @file
 * Declarative chaos scenarios: what goes wrong, and when.
 *
 * A ScenarioSpec is an ordered list of timed fault / recovery / load
 * events built either through the fluent builder API or parsed from the
 * scenario text format (one event per line — see Parse). The spec is
 * pure data: arming it against a running cluster is the ChaosEngine's
 * job, which keeps scenarios serializable, diffable and replayable.
 *
 * Determinism: a spec carries no randomness. Every stochastic element
 * of a chaos run (surge arrival gaps) draws from Rngs seeded from the
 * cluster seed and the event index, so the same spec + seed replays
 * bit-for-bit (the guarantee tests/chaos_test.cc locks in).
 */
#ifndef DILU_CHAOS_SCENARIO_H_
#define DILU_CHAOS_SCENARIO_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace dilu::chaos {

/** What kind of perturbation an event injects. */
enum class FaultKind {
  kGpuFail,
  kGpuRecover,
  kNodeFail,
  kNodeRecover,
  kNodeDrain,
  kNodeUndrain,
  kGpuDegrade,          ///< partial SM loss: capacity drops, GPU stays up
  kGpuStraggle,         ///< latency inflation: capacity = 1/factor
  kCheckpointEvery,     ///< arm periodic training checkpoints for a fn
  kColdStartInflation,  ///< scale cold-start durations for a window
  kTrafficSurge,        ///< extra Poisson arrivals for a window
  kOverload,            ///< multiply a fn's offered load for a window
  kThrottleAdmit,       ///< pin a fn's gateway admit rate for a window
  kLinkFail,            ///< node NIC outage: fabric transfers stall
  kStorageBrownout,     ///< storage tier slows by a factor for a window
};

/** Scenario-format verb for `kind` (e.g. "fail_node"). */
const char* ToString(FaultKind kind);

/** True for events that displace instances (TTR is measured for them). */
bool IsDisruptive(FaultKind kind);

/**
 * True for overload-pressure events (kOverload / kThrottleAdmit): the
 * chaos verdict measures time-to-shed-recovery (TTSR) for them — how
 * long after the window the gateway keeps shedding the target function.
 */
bool IsShedding(FaultKind kind);

/**
 * True for fabric-tier events (kLinkFail / kStorageBrownout): the
 * chaos verdict measures TTR for them as the time from injection until
 * the window has closed *and* the affected tier's transfer backlog has
 * drained — emergent from fabric contention, not a fixed horizon.
 * No-ops (and instantly recovered) when the cluster runs fabric-less.
 */
bool IsFabric(FaultKind kind);

/** One timed event in a scenario. */
struct ScenarioEvent {
  TimeUs at = 0;
  FaultKind kind = FaultKind::kGpuFail;
  /** GPU or node id for targeted kinds; unused otherwise. */
  std::int32_t target = -1;
  /** Surge target function. */
  FunctionId function = kInvalidFunction;
  /** Cold-start factor (kColdStartInflation) or extra RPS (surge). */
  double magnitude = 0.0;
  /** Window length for inflation / surge; interval for checkpoints. */
  TimeUs duration = 0;
  /** kCheckpointEvery: pause the job this long per snapshot. */
  TimeUs save_cost = 0;
};

/** Canonical text for one event ("at 10s fail_node 1", no newline). */
std::string FormatEventLine(const ScenarioEvent& e);

/** A named, ordered chaos scenario. */
class ScenarioSpec {
 public:
  ScenarioSpec() = default;
  explicit ScenarioSpec(std::string name) : name_(std::move(name)) {}

  // --- builder API (chainable) ----------------------------------------
  ScenarioSpec& FailGpu(TimeUs at, GpuId gpu);
  ScenarioSpec& RecoverGpu(TimeUs at, GpuId gpu);
  ScenarioSpec& FailNode(TimeUs at, NodeId node);
  ScenarioSpec& RecoverNode(TimeUs at, NodeId node);
  ScenarioSpec& DrainNode(TimeUs at, NodeId node);
  ScenarioSpec& UndrainNode(TimeUs at, NodeId node);
  /** Degrade `gpu` to `capacity` in (0, 1) of its nominal compute. */
  ScenarioSpec& DegradeGpu(TimeUs at, GpuId gpu, double capacity);
  /** Make `gpu` a straggler: latency inflates by `factor` > 1. */
  ScenarioSpec& StraggleGpu(TimeUs at, GpuId gpu, double factor);
  /**
   * Arm periodic training checkpoints (`every`) for function `fn`.
   * `save_cost` > 0 additionally pauses the job for that duration at
   * each snapshot (the save is not free; see CheckpointPolicy).
   */
  ScenarioSpec& CheckpointEvery(TimeUs at, FunctionId fn, TimeUs every,
                                TimeUs save_cost = 0);
  ScenarioSpec& InflateColdStarts(TimeUs at, double factor,
                                  TimeUs duration);
  ScenarioSpec& Surge(TimeUs at, FunctionId fn, double extra_rps,
                      TimeUs duration);
  /**
   * Multiply `fn`'s offered load by `factor` > 1 for `duration`: the
   * engine measures the function's lifetime-average arrival rate at
   * injection time and attaches (factor - 1)x that as extra Poisson
   * arrivals, so "4x overload" tracks the real traffic level.
   */
  ScenarioSpec& Overload(TimeUs at, FunctionId fn, double factor,
                         TimeUs duration);
  /** Pin `fn`'s gateway admit rate to `rate` req/s for `duration`. */
  ScenarioSpec& ThrottleAdmit(TimeUs at, FunctionId fn, double rate,
                              TimeUs duration);
  /** Take `node`'s NIC down for `duration` (fabric network tier). */
  ScenarioSpec& FailLink(TimeUs at, NodeId node, TimeUs duration);
  /**
   * Slow the storage tier by `factor` > 1 for `duration` (a GC storm /
   * firmware brownout): transfers submitted inside the window need
   * `factor`x their nominal service time.
   */
  ScenarioSpec& StorageBrownout(TimeUs at, double factor, TimeUs duration);

  /**
   * Append a fully formed event. The builder verbs above are the
   * normal authoring path; this exists for drivers that transform an
   * existing spec — the experiment driver splits a fleet scenario
   * into per-shard sub-scenarios with remapped node/GPU/function ids.
   */
  ScenarioSpec& Add(ScenarioEvent e)
  {
    events_.push_back(e);
    return *this;
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const std::vector<ScenarioEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /**
   * Events ordered by injection time (stable: ties keep insertion
   * order, so a spec is replayed exactly as authored).
   */
  std::vector<ScenarioEvent> Sorted() const;

  /**
   * Serialize to the scenario text format:
   *
   *   # comments (whole-line or trailing) and blank lines are skipped
   *   scenario <name>
   *   at 10s fail_node 1        # node zero dies
   *   at 12s surge fn=0 rps=80 for 20s
   *   at 15s degrade_gpu 3 x0.6
   *   at 20s straggle 5 x2.5
   *   at 0s checkpoint_every fn=1 every=30s save=500ms
   *   at 30s inflate_coldstart x2.5 for 60s
   *   at 40s recover_node 1
   *
   * Times take a us / ms / s suffix. ToText/Parse round-trip.
   */
  std::string ToText() const;

  /**
   * Parse the text format. On failure returns false and leaves a
   * line-numbered message in `*error` (when non-null); `*out` is only
   * written on success.
   */
  static bool Parse(const std::string& text, ScenarioSpec* out,
                    std::string* error);

  /**
   * Parse one comment-stripped event line ("at 10s fail_node 1") and
   * append it to `*spec`. The experiment loader embeds scenario lines
   * under its own `chaos` directive and reuses the grammar through
   * this; `line_no` is the caller's line number, so errors point at the
   * real file location. On failure returns false with a line-numbered
   * `*error` (a trailing-garbage failure may leave the event appended —
   * callers discard the spec on any failure).
   */
  static bool ParseEventLine(const std::string& line, int line_no,
                             ScenarioSpec* spec, std::string* error);

 private:
  std::string name_;
  std::vector<ScenarioEvent> events_;
};

}  // namespace dilu::chaos

#endif  // DILU_CHAOS_SCENARIO_H_
