/**
 * @file
 * Simulation driver: owns the event queue and provides periodic tasks.
 *
 * Periodic tasks implement the paper's fixed-cadence control loops: the
 * RCKM token period (5 ms), the global scaler's 1 s workload poll, and
 * metric sampling.
 */
#ifndef DILU_SIM_SIMULATION_H_
#define DILU_SIM_SIMULATION_H_

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"

namespace dilu::sim {

/**
 * Owns an EventQueue plus a registry of periodic tasks.
 *
 * Periodic tasks are re-armed after each firing, so a task may stop
 * itself by calling StopPeriodic from within its callback.
 */
class Simulation {
 public:
  Simulation() = default;

  EventQueue& queue() { return queue_; }
  TimeUs now() const { return queue_.now(); }

  /** Identifier for a periodic task. */
  using TaskId = std::size_t;

  /**
   * Register `fn` to run every `period`, first firing at `start`.
   * @return a TaskId usable with StopPeriodic.
   */
  TaskId SchedulePeriodic(TimeUs start, TimeUs period,
                          std::function<void()> fn);

  /**
   * Stop a periodic task (it will not fire again). Safe to call from
   * inside the task's own callback: the task is not re-armed. Stopping
   * also cancels the task's pending event, so a stopped task leaves no
   * residue in the queue.
   */
  void StopPeriodic(TaskId id);

  /**
   * Post `fn` to run at `when` (>= now) on this simulation's queue.
   *
   * Every Simulation is one shard's clock (docs/PARALLELISM.md), and
   * shards share nothing while they run, so a post always targets the
   * poster's own shard. Layer code above sim/ should call Post rather
   * than queue().ScheduleAt so dilu_lint's event-schedule rule can keep
   * raw scheduling confined to sim/.
   */
  EventId Post(TimeUs when, EventCallback fn)
  {
    return queue_.ScheduleAt(when, std::move(fn));
  }

  /**
   * Register a recurring source (EventQueue::AddSource): `fn` fires
   * once per PostSource. For a stream that posts its own successor,
   * such as an open-loop arrival stream, this replaces one Post per
   * firing. Like Post, the layer-facing name keeps raw queue calls
   * confined to sim/ (dilu_lint's event-schedule rule).
   */
  SourceId RegisterSource(EventCallback fn)
  {
    return queue_.AddSource(std::move(fn));
  }

  /** Arm source `id` to fire at `when` (EventQueue::ArmSource). */
  void PostSource(SourceId id, TimeUs when) { queue_.ArmSource(id, when); }

  /** Advance simulated time to `deadline`, firing due events. */
  void RunUntil(TimeUs deadline) { queue_.RunUntil(deadline); }

  /**
   * Run for `duration` beyond the current time, saturating at
   * kTimeCapUs: a duration near the ParseTime cap added to a late
   * now() must clamp to the cap, not wrap TimeUs into the past.
   */
  void RunFor(TimeUs duration)
  {
    const TimeUs now = queue_.now();
    const TimeUs deadline = duration >= kTimeCapUs - now
                                ? (now > kTimeCapUs ? now : kTimeCapUs)
                                : now + duration;
    queue_.RunUntil(deadline);
  }

 private:
  struct PeriodicTask {
    TimeUs period = 0;
    std::function<void()> fn;
    bool stopped = false;
    EventId armed = 0;  // pending event for the next firing
  };

  void Arm(TaskId id, TimeUs when);

  EventQueue queue_;
  std::vector<std::unique_ptr<PeriodicTask>> tasks_;
};

}  // namespace dilu::sim

#endif  // DILU_SIM_SIMULATION_H_
