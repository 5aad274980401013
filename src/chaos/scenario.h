/**
 * @file
 * Declarative chaos scenarios: what goes wrong, and when.
 *
 * A ScenarioSpec is an ordered list of timed fault / recovery / load
 * events built either through the fluent builder API or parsed one
 * event line at a time (ParseEventLine; an experiment spec carries them
 * as `chaos` lines). The spec is pure data: arming it against a
 * running cluster is the ChaosEngine's job, which keeps scenarios
 * serializable, diffable and replayable.
 *
 * Determinism: a spec carries no randomness. Every stochastic element
 * of a chaos run (surge arrival gaps) draws from Rngs seeded from the
 * cluster seed and the event index, so the same spec + seed replays
 * bit-for-bit (the guarantee tests/chaos_test.cc locks in).
 */
#ifndef DILU_CHAOS_SCENARIO_H_
#define DILU_CHAOS_SCENARIO_H_

#include <string>
#include <string_view>
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

/** What a verb's operand names. */
enum class Operand {
  kGpu,       ///< a GPU id ("fail_gpu 3")
  kNode,      ///< a node id, incl. the node's NIC ("fail_link 0 ...")
  kFunction,  ///< a deploy index ("surge fn=0 ...")
  kFleet,     ///< nothing: the event hits the whole fleet
};

/** The operand `kind`'s verb takes (the sharded driver routes by it). */
Operand OperandOf(FaultKind kind);

/**
 * For Operand::kFunction verbs, the task type the named deploy must
 * have (surge / overload / throttle_admit: inference; checkpoint_every:
 * training).
 */
TaskType FunctionTaskOf(FaultKind kind);

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

/**
 * `magnitude` of a `kind` event under chaos intensity `intensity` > 0
 * (a sweep's `chaos.intensity` axis). Additive magnitudes (surge extra
 * RPS) scale linearly; factors f > 1 (overload, cold-start inflation,
 * storage brownout) scale in excess over one, so intensity 1 is the
 * identity and every intensity keeps the factor above 1. Targeted
 * faults, throttles and checkpoint policies keep theirs: intensity
 * means how hard the pressure pushes, not which faults fire.
 */
double ScaleMagnitude(FaultKind kind, double magnitude, double intensity);

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

/** An ordered chaos scenario. */
class ScenarioSpec {
 public:
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

  const std::vector<ScenarioEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /**
   * Events ordered by injection time (stable: ties keep insertion
   * order, so a spec is replayed exactly as authored).
   */
  std::vector<ScenarioEvent> Sorted() const;

  /**
   * Parse one comment-stripped event line and append it to `*spec`:
   *
   *   at 10s fail_node 1
   *   at 12s surge fn=0 rps=80 for 20s
   *   at 0s checkpoint_every fn=1 every=30s save=500ms
   *
   * Times take a us / ms / s suffix; FormatEventLine prints the
   * canonical form back. The experiment loader reads the grammar
   * through this under its `chaos` directive; `line_no` is the
   * caller's line number, so errors point at the real file location.
   * On failure returns false with a line-numbered `*error` and leaves
   * `*spec` as it was.
   */
  static bool ParseEventLine(std::string_view line, int line_no,
                             ScenarioSpec* spec, std::string* error);

 private:
  std::vector<ScenarioEvent> events_;
};

}  // namespace dilu::chaos

#endif  // DILU_CHAOS_SCENARIO_H_
