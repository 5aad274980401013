/**
 * @file
 * ChaosEngine: arms a ScenarioSpec against a running cluster and
 * measures how the system rides out each fault.
 *
 * The engine schedules every scenario event into the simulation, calls
 * the corresponding ClusterRuntime fault API at fire time, and — for
 * disruptive events (GPU/node failure, drain) — watches the fleet heal:
 * a fault counts as *recovered* once every displaced replacement has
 * been placed (no pending recoveries) and every inference function is
 * back to at least its pre-fault running-instance count. Time-to-
 * recover (TTR) therefore includes scheduler re-placement, queue
 * re-dispatch and the recovery cold start — the full service-level
 * healing path, not just the control-plane action.
 *
 * Everything the engine does is deterministic under the cluster seed:
 * surge arrivals derive their Rng from (cluster seed, event index), and
 * the recovery watch polls on a fixed cadence, so two runs of the same
 * scenario produce byte-identical traces (tests/chaos_test.cc).
 */
#ifndef DILU_CHAOS_CHAOS_ENGINE_H_
#define DILU_CHAOS_CHAOS_ENGINE_H_

#include <map>
#include <vector>

#include "chaos/scenario.h"
#include "cluster/cluster.h"

namespace dilu::chaos {

/** Measured outcome of one scenario event. */
struct FaultOutcome {
  ScenarioEvent event;
  bool injected = false;     ///< the event fired (sim reached its time)
  int displaced = 0;         ///< instances killed / migrated
  /**
   * Service healed (-1: never / not measured). For disruptive faults:
   * the fleet is whole again. For shedding events (overload /
   * throttle_admit): the gateway stopped shedding the target function
   * after the pressure window closed.
   */
  TimeUs recovered_at = -1;

  /** Fault-to-healed time; -1 while unrecovered or non-disruptive. */
  TimeUs TimeToRecover() const
  {
    return recovered_at < 0 ? -1 : recovered_at - event.at;
  }

  /**
   * Time-to-shed-recovery: from the pressure window's end until sheds
   * quiesced; -1 while still shedding (or for non-shedding events).
   */
  TimeUs TimeToShedRecover() const
  {
    return recovered_at < 0 ? -1
                            : recovered_at - (event.at + event.duration);
  }
};

/** End-of-run aggregate verdict for a scenario. */
struct ChaosVerdict {
  int injected = 0;        ///< events fired
  /** Displacing faults plus fabric-tier outages (TTR is measured). */
  int disruptive = 0;
  int recovered = 0;       ///< disruptive faults that healed
  double mean_ttr_s = 0;   ///< over recovered faults (0 if none)
  double max_ttr_s = 0;
  int shed_events = 0;     ///< overload / throttle_admit events fired
  int shed_recovered = 0;  ///< shed events whose sheds quiesced
  double mean_ttsr_s = 0;  ///< time-to-shed-recovery (0 if none)
  double max_ttsr_s = 0;

  /** Every disruptive fault healed. */
  bool AllRecovered() const { return recovered == disruptive; }

  /** Every shedding event quiesced. */
  bool AllShedRecovered() const { return shed_recovered == shed_events; }
};

/** Schedules a scenario into a cluster's simulation and keeps score. */
class ChaosEngine {
 public:
  /**
   * @param runtime  the cluster under test (must outlive the engine)
   * @param spec     the scenario to inject
   */
  ChaosEngine(cluster::ClusterRuntime* runtime, ScenarioSpec spec);

  /**
   * Schedule every scenario event into the simulation (idempotent).
   * Events whose time is already in the past are skipped with a
   * warning — arm the engine before running the workload.
   */
  void Arm();

  const ScenarioSpec& spec() const { return spec_; }

  /** Per-event outcomes, in injection order. */
  const std::vector<FaultOutcome>& outcomes() const { return outcomes_; }

  /** Aggregate verdict over the outcomes so far. */
  ChaosVerdict Verdict() const;

  /**
   * Verdict over an arbitrary outcome set — the experiment driver
   * merges per-shard outcomes into one fleet-wide list and scores it
   * here.
   */
  static ChaosVerdict VerdictOf(const std::vector<FaultOutcome>& outcomes);

 private:
  void Inject(std::size_t index);
  void BeginRecoveryWatch(std::size_t index);
  /**
   * Watch a shedding event: its outcome recovers once a full watch
   * period after `window_end` passes with no new sheds on `fn`.
   */
  void BeginShedWatch(std::size_t index, FunctionId fn,
                      TimeUs window_end);
  /**
   * Watch a fabric-tier outage: its outcome recovers once the window
   * has closed and the affected tier's transfer backlog drained —
   * `node` >= 0 watches that node's NIC frontiers, -1 the storage
   * tier. TTR is therefore emergent from fabric contention.
   */
  void BeginFabricWatch(std::size_t index, NodeId node, TimeUs window_end);
  /** Drop unaffected functions from the newest watch (post-injection). */
  void FocusWatchOnAffected();
  void WatchTick();
  bool TrainingHealed(FunctionId fn);
  /** Total sheds (admission + retry) the gateway counted for `fn`. */
  std::int64_t ShedTotal(FunctionId fn) const;
  /** Arm the shared watch periodic if it is not running. */
  void EnsureWatchArmed();

  /** One disruptive fault being watched until the fleet heals. */
  struct Watch {
    std::size_t outcome = 0;
    /**
     * Pre-fault running-instance counts — narrowed after injection to
     * the functions the fault actually displaced, so an unrelated
     * function's autoscaler scale-in cannot block heal detection.
     */
    std::map<FunctionId, int> pre_running;
    /** Training functions with an unfinished job at fault time. */
    std::vector<FunctionId> pre_training;
  };

  /** One shedding event watched until the gateway quiesces. */
  struct ShedWatch {
    std::size_t outcome = 0;
    FunctionId fn = kInvalidFunction;
    TimeUs window_end = 0;
    /** Shed count at the last poll (quiesced = no growth post-window). */
    std::int64_t last_sheds = 0;
  };

  /** One fabric outage watched until its tier's backlog drains. */
  struct FabricWatch {
    std::size_t outcome = 0;
    /** Affected node's NIC, or -1 for the storage tier. */
    NodeId node = -1;
    TimeUs window_end = 0;
  };

  cluster::ClusterRuntime* rt_;
  ScenarioSpec spec_;
  std::vector<ScenarioEvent> sorted_;
  std::vector<FaultOutcome> outcomes_;
  std::vector<Watch> watches_;
  std::vector<ShedWatch> shed_watches_;
  std::vector<FabricWatch> fabric_watches_;
  sim::Simulation::TaskId watch_task_ = 0;
  bool watch_armed_ = false;
  bool armed_ = false;
  /** Generation of the newest cold-start-inflation window: a window's
   *  end restores the nominal scale only if no newer window opened. */
  std::uint64_t inflation_epoch_ = 0;
  /** Per-function generation of the newest throttle_admit window. */
  std::map<FunctionId, std::uint64_t> throttle_epochs_;
  /** Generation of the newest storage-brownout window (same idiom). */
  std::uint64_t brownout_epoch_ = 0;
};

}  // namespace dilu::chaos

#endif  // DILU_CHAOS_CHAOS_ENGINE_H_
