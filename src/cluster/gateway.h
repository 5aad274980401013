/**
 * @file
 * Application-layer gateway: dispatches requests to the least-loaded
 * instance of a function and exposes per-second arrival counts to the
 * global scaler (Section 3.1's gateway + load balancer).
 *
 * The gateway is also the drop-accounting point of the fault model: a
 * request that cannot be routed to any instance (none deployed, or the
 * last one died) is counted against its function in the MetricsHub and
 * marked `dropped` so record owners can reclaim it.
 *
 * On top of routing it implements the overload-resilience layer
 * (docs/OVERLOAD.md): per-function bounded admission queues with an
 * AIMD admit-rate controller, strictly lowest-class-first brownout
 * shedding under cluster pressure, and retry budgets with seeded-jitter
 * exponential backoff for re-dispatched requests. All of it is opt-in
 * per function (queue_cap == 0 keeps the legacy unbounded behaviour)
 * and O(1) per request on the uncontended admit path.
 */
#ifndef DILU_CLUSTER_GATEWAY_H_
#define DILU_CLUSTER_GATEWAY_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "cluster/metrics.h"
#include "common/function_table.h"
#include "common/random.h"
#include "runtime/inference_instance.h"
#include "workload/request.h"

namespace dilu::sim {
class Simulation;
}  // namespace dilu::sim

namespace dilu::cluster {

/** Per-function overload policy (from FunctionSpec; docs/OVERLOAD.md). */
struct AdmissionConfig {
  ServiceClass service_class = ServiceClass::kStandard;
  int queue_cap = 0;        ///< max outstanding; 0 = admission disabled
  int retry_budget = 0;     ///< re-dispatch attempts; 0 = legacy drops
  TimeUs retry_backoff = Ms(100);  ///< base backoff (doubles per retry)
  TimeUs deadline = 0;      ///< relative request deadline; 0 = none
};

/**
 * Per-function request accounting. The conservation invariant audited
 * in tests/invariant_audit.h:
 *
 *   arrivals == finished + shed_admission + shed_retry + dropped
 *               + in-instance backlog + retry_pending
 *
 * holds for every function at any instant between events.
 */
struct GatewayCounters {
  std::int64_t arrivals = 0;        ///< requests offered to Dispatch
  std::int64_t admitted = 0;        ///< passed admission, enqueued
  std::int64_t finished = 0;        ///< completions reported back
  std::int64_t dropped = 0;         ///< legacy unroutable drops
  std::int64_t shed_admission = 0;  ///< refused at the admission gate
  std::int64_t shed_retry = 0;      ///< retry budget/deadline exhausted
  std::int64_t retry_pending = 0;   ///< parked in a backoff timer
  std::int64_t outstanding = 0;     ///< admitted - finished - terminal
  std::int64_t peak_outstanding = 0;  ///< high-water mark of outstanding
};

/** Request router + workload monitor + admission controller. */
class Gateway {
 public:
  /**
   * A gateway on `sim`'s event queue, which carries its retry backoff
   * timers and the 1 s AIMD admission window; `seed` keys the
   * retry-jitter stream.
   */
  Gateway(sim::Simulation* sim, std::uint64_t seed);

  /** Register a function (idempotent). */
  void RegisterFunction(FunctionId id);

  /** Wire the metrics hub used for drop accounting (may be null). */
  void set_metrics(MetricsHub* metrics) { metrics_ = metrics; }

  /**
   * Observer fired whenever a request is dropped (unroutable dispatch
   * or failed re-dispatch), with the dropped request itself. The
   * cluster layer uses it to keep closed-loop clients alive: a client
   * whose request died still gets its completion signal, so the loop
   * never wedges on a fault (and can tell closed-loop requests from
   * open-loop ones via Request::closed_loop).
   */
  void set_drop_hook(std::function<void(const workload::Request&)> hook)
  {
    drop_hook_ = std::move(hook);
  }

  /**
   * Install a function's overload policy (called at deploy). Admission
   * gating is active only when `cfg.queue_cap > 0`; the retry budget
   * and deadline stamps apply whenever configured.
   */
  void ConfigureAdmission(FunctionId id, const AdmissionConfig& cfg);

  /** Add / remove serving instances. */
  void AddInstance(FunctionId id, runtime::InferenceInstance* instance);

  /**
   * Unlink `instance` and re-home its queued (not yet batched) requests
   * onto the remaining instances. Requests that cannot be re-dispatched
   * (no instances left) are marked dropped — work handed to the gateway
   * is never stranded in a removed instance's queue. The in-flight
   * batch is untouched: graceful removal lets it finish (Terminate
   * flushes it); abrupt failure surrenders it via FailAndDrain before
   * calling this.
   */
  void RemoveInstance(FunctionId id, InstanceId instance);

  /**
   * Dispatch `req` to the least-loaded *running* instance; if every
   * instance is still cold-starting, pick the least-loaded one anyway
   * (requests queue behind the cold start, paying its latency).
   * Returns false — and counts an admission shed — when the function's
   * admission gate refuses it (queue cap reached, AIMD admit-rate
   * window exhausted, or brownout for its service class). When the
   * function has no routable instance at all, a request with a retry
   * budget is admitted and parked in a backoff retry timer — the
   * bounded queue rides out total-capacity blackouts — and Dispatch
   * returns true (the request is live);
   * without a budget the legacy semantics hold: counted as a drop,
   * returns false.
   */
  bool Dispatch(workload::Request* req);

  /**
   * Re-dispatch a request surrendered by a removed or failed instance.
   * Does not count a new arrival (the scaler already saw this request).
   * With a retry budget, a failed attempt parks the request in an
   * exponential-backoff timer (seeded jitter) and returns true (the
   * request is still live); budget or deadline exhaustion sheds it as
   * `shed_retry`. Without a budget the legacy semantics hold: the
   * request is marked dropped + done and the drop is counted; returns
   * false.
   */
  bool Redispatch(workload::Request* req);

  /** Report a completion (feeds the outstanding/backlog accounting). */
  void OnRequestFinished(FunctionId id);

  /**
   * Chaos hook: pin the admit rate (requests/second) regardless of the
   * AIMD controller (`throttle_admit` scenario verb). Clearing restores
   * the configured policy — AIMD resumes from the pinned rate if the
   * function has a queue cap, otherwise admission gating disengages.
   */
  void ForceAdmitRate(FunctionId id, double rate);
  void ClearForcedAdmitRate(FunctionId id);

  /** Arrivals since the previous Poll (the scaler's 1 Hz sample). */
  double PollArrivals(FunctionId id);

  /** Lifetime-average offered rate (arrivals / elapsed seconds). */
  double AverageArrivalRate(FunctionId id, TimeUs now) const;

  /** Per-function request accounting (zeros for unknown functions). */
  const GatewayCounters& counters(FunctionId id) const;

  /**
   * Current AIMD admit rate in requests/second (+infinity until the
   * controller's first multiplicative cut).
   */
  double admit_rate(FunctionId id) const;

  /**
   * Cluster admission pressure in [0, 1]: total outstanding over total
   * queue capacity across cap-enabled functions (brownout input;
   * refreshed each admission window).
   */
  double pressure() const { return pressure_; }

  const std::vector<runtime::InferenceInstance*>& instances(
      FunctionId id) const;

  /** Count of instances in the running state. */
  int RunningCount(FunctionId id) const;

 private:
  /**
   * Why the admission gate refused a request. Congestion causes (queue
   * cap, brownout) feed the AIMD cut signal; a rate-gate refusal does
   * not — sheds the rate limit itself causes must never drive further
   * cuts, or the controller spirals to the floor and can't recover.
   */
  enum class ShedCause { kNone, kCongestion, kRateGate };

  struct Admission {
    AdmissionConfig cfg;
    bool configured = false;  ///< ConfigureAdmission was called
    bool enabled = false;     ///< admission gate active (cap or forced)
    bool forced = false;      ///< admit_rate pinned by chaos
    /** Admit rate in req/s; +inf until the controller's first cut. */
    double admit_rate = std::numeric_limits<double>::infinity();
    // Window accumulators, reset by each AdmissionTick.
    std::int64_t window_admitted = 0;
    /** Congestion (cap/brownout) sheds only — the AIMD cut signal. */
    std::int64_t window_sheds = 0;
  };

  struct Entry {
    std::vector<runtime::InferenceInstance*> instances;
    double arrivals_since_poll = 0.0;
    Admission adm;
    GatewayCounters c;
  };

  /**
   * Routing core shared by Dispatch / Redispatch; `e` is the entry of
   * `req`'s function (null when it was never registered).
   */
  bool DispatchInternal(Entry* e, workload::Request* req,
                        bool count_arrival);

  /** Whether (and why) the gate refuses `e`'s next request. */
  ShedCause ShouldShed(const Entry& e) const;

  /** Terminal outcomes (mark, count, notify the drop hook). */
  void ShedAtAdmission(Entry* e, workload::Request* req, ShedCause cause);
  void ShedRetry(Entry* e, workload::Request* req);
  void DropTerminal(Entry* e, workload::Request* req, bool redispatch);

  /** Park `req` in a seeded-jitter exponential-backoff retry timer. */
  void ScheduleRetry(Entry* e, workload::Request* req);

  /** 1 s AIMD window: adjust admit rates, refresh brownout pressure. */
  void AdmissionTick();

  /** Arm the 1 Hz admission window once a gate goes active. */
  void EnsureTickArmed();

  FunctionTable<Entry> functions_;
  MetricsHub* metrics_ = nullptr;
  std::function<void(const workload::Request&)> drop_hook_;
  sim::Simulation* sim_;
  Rng rng_;             ///< retry-jitter stream
  bool tick_armed_ = false;
  double pressure_ = 0.0;
};

}  // namespace dilu::cluster

#endif  // DILU_CLUSTER_GATEWAY_H_
