#include "cluster/gateway.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "sim/simulation.h"

namespace dilu::cluster {
namespace {

/** AIMD admission window (also the brownout pressure refresh cadence). */
constexpr TimeUs kAdmissionWindow = Sec(1);

/** Multiplicative cut applied to the admit rate on an overloaded window. */
constexpr double kAimdCut = 0.5;

/** Additive raise (req/s per window) applied on a shed-free window. */
constexpr double kAimdStep = 4.0;

/** Floor of the admit rate: never choke a function off entirely. */
constexpr double kMinAdmitRate = 1.0;

/** Retry backoff stops doubling after this many attempts (base << 6). */
constexpr int kMaxBackoffShift = 6;

/**
 * Brownout pressure thresholds: the fraction of total queue capacity in
 * use at which each service class starts shedding. Strictly ordered so
 * degradation is lowest-class-first; critical never brownout-sheds.
 */
constexpr double kBrownoutBestEffort = 0.5;
constexpr double kBrownoutStandard = 0.9;

double
BrownoutThreshold(ServiceClass c)
{
  switch (c) {
    case ServiceClass::kCritical:
      return std::numeric_limits<double>::infinity();
    case ServiceClass::kStandard:
      return kBrownoutStandard;
    case ServiceClass::kBestEffort:
      return kBrownoutBestEffort;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

// A gateway-private jitter stream derived from the cluster seed, so
// retry jitter never perturbs the workload or chaos streams.
Gateway::Gateway(sim::Simulation* sim, std::uint64_t seed)
    : sim_(sim), rng_(seed * 0x9E3779B97F4A7C15ull + 0xB5297A4D3A2C0A5Full)
{
  DILU_CHECK(sim_ != nullptr);
}

void
Gateway::RegisterFunction(FunctionId id)
{
  functions_.Get(id);
}

void
Gateway::ConfigureAdmission(FunctionId id, const AdmissionConfig& cfg)
{
  Entry& e = functions_.Get(id);
  e.adm.cfg = cfg;
  e.adm.configured = true;
  if (!e.adm.forced) e.adm.enabled = cfg.queue_cap > 0;
  if (e.adm.enabled) EnsureTickArmed();
}

void
Gateway::AddInstance(FunctionId id, runtime::InferenceInstance* instance)
{
  DILU_CHECK(instance != nullptr);
  functions_.Get(id).instances.push_back(instance);
}

void
Gateway::RemoveInstance(FunctionId id, InstanceId instance)
{
  Entry* e = functions_.Find(id);
  if (e == nullptr) return;
  auto& v = e->instances;
  runtime::InferenceInstance* removed = nullptr;
  for (auto i = v.begin(); i != v.end(); ++i) {
    if ((*i)->client_id() == instance) {
      removed = *i;
      v.erase(i);
      break;
    }
  }
  if (removed == nullptr) return;
  // Re-home queued work so removal never strands a dispatched request.
  std::vector<workload::Request*> orphans;
  removed->TakeQueued(&orphans);
  for (workload::Request* r : orphans) Redispatch(r);
}

bool
Gateway::DispatchInternal(Entry* e, workload::Request* req,
                          bool count_arrival)
{
  if (e == nullptr || e->instances.empty()) return false;
  if (count_arrival) e->arrivals_since_poll += 1.0;

  runtime::InferenceInstance* best = nullptr;
  std::size_t best_depth = std::numeric_limits<std::size_t>::max();
  // Prefer running instances; fall back to cold ones.
  for (int pass = 0; pass < 2 && best == nullptr; ++pass) {
    for (runtime::InferenceInstance* inst : e->instances) {
      if (pass == 0 && !inst->running()) continue;
      const std::size_t depth =
          inst->queue_depth() + (inst->batch_in_flight() ? 1 : 0);
      if (depth < best_depth) {
        best_depth = depth;
        best = inst;
      }
    }
  }
  if (best == nullptr) return false;
  best->Enqueue(req);
  return true;
}

Gateway::ShedCause
Gateway::ShouldShed(const Entry& e) const
{
  const Admission& a = e.adm;
  if (a.cfg.queue_cap > 0) {
    // Hard bound: outstanding (queued + in flight + parked retries)
    // never exceeds the configured capacity.
    if (e.c.outstanding >= a.cfg.queue_cap) return ShedCause::kCongestion;
    // Brownout: under cluster pressure, shed lowest-class-first.
    if (pressure_ >= BrownoutThreshold(a.cfg.service_class)) {
      return ShedCause::kCongestion;
    }
  }
  // AIMD rate gate: this window's admission budget is spent.
  if (static_cast<double>(a.window_admitted) >= a.admit_rate) {
    return ShedCause::kRateGate;
  }
  return ShedCause::kNone;
}

bool
Gateway::Dispatch(workload::Request* req)
{
  DILU_CHECK(req != nullptr);
  Entry* e = functions_.Find(req->function);
  if (e != nullptr) {
    ++e->c.arrivals;
    if (e->adm.configured) {
      if (e->adm.cfg.deadline > 0) {
        req->deadline = req->arrival + e->adm.cfg.deadline;
      }
      req->retries_left = e->adm.cfg.retry_budget;
    }
    if (e->adm.enabled) {
      const ShedCause cause = ShouldShed(*e);
      if (cause != ShedCause::kNone) {
        // The scaler still sees shed demand: refused traffic is the
        // strongest scale-out signal there is.
        e->arrivals_since_poll += 1.0;
        ShedAtAdmission(e, req, cause);
        return false;
      }
    }
  }
  if (DispatchInternal(e, req, /*count_arrival=*/true)) {
    ++e->c.admitted;
    ++e->adm.window_admitted;
    ++e->c.outstanding;
    e->c.peak_outstanding =
        std::max(e->c.peak_outstanding, e->c.outstanding);
    if (metrics_ != nullptr) {
      metrics_->RecordAdmit(req->function, req->arrival);
    }
    return true;
  }
  if (e != nullptr && e->adm.configured && req->retries_left > 0) {
    // No routable instance right now (e.g. every one died and the
    // replacement is deferred on a full cluster). The request passed
    // admission, so park it in the bounded queue as a backoff retry
    // instead of dropping — the gateway rides out total-capacity
    // blackouts shorter than the retry budget's backoff horizon.
    ++e->c.admitted;
    ++e->adm.window_admitted;
    ++e->c.outstanding;
    e->c.peak_outstanding =
        std::max(e->c.peak_outstanding, e->c.outstanding);
    e->arrivals_since_poll += 1.0;
    if (metrics_ != nullptr) {
      metrics_->RecordAdmit(req->function, req->arrival);
    }
    ScheduleRetry(e, req);
    return true;
  }
  DropTerminal(e, req, /*redispatch=*/false);
  return false;
}

bool
Gateway::Redispatch(workload::Request* req)
{
  DILU_CHECK(req != nullptr);
  Entry* e = functions_.Find(req->function);
  if (e != nullptr && req->deadline > 0 && sim_->now() >= req->deadline) {
    ShedRetry(e, req);
    return false;
  }
  if (DispatchInternal(e, req, /*count_arrival=*/false)) return true;
  if (e != nullptr && req->retries_left > 0) {
    // Park the request in a backoff timer instead of dropping: the
    // request stays live (caller keeps its record) and returns here
    // when the timer fires.
    ScheduleRetry(e, req);
    return true;
  }
  if (e != nullptr && e->adm.cfg.retry_budget > 0) {
    ShedRetry(e, req);
    return false;
  }
  // Nowhere to go: the request dies here. Marking it done lets the
  // runtime's prune cursor reclaim its record.
  DropTerminal(e, req, /*redispatch=*/true);
  return false;
}

void
Gateway::OnRequestFinished(FunctionId id)
{
  Entry* e = functions_.Find(id);
  if (e == nullptr) return;
  ++e->c.finished;
  --e->c.outstanding;
}

void
Gateway::ShedAtAdmission(Entry* e, workload::Request* req,
                         ShedCause cause)
{
  req->dropped = true;
  ++e->c.shed_admission;
  // Only congestion sheds drive the multiplicative cut: counting the
  // rate gate's own refusals would cut again every window the offered
  // load exceeds the (already cut) rate — a spiral to the floor.
  if (cause == ShedCause::kCongestion) ++e->adm.window_sheds;
  if (metrics_ != nullptr) {
    metrics_->RecordShedAdmission(req->function, req->arrival);
  }
  if (drop_hook_) drop_hook_(*req);
}

void
Gateway::ShedRetry(Entry* e, workload::Request* req)
{
  req->dropped = true;
  req->done = true;
  ++e->c.shed_retry;
  --e->c.outstanding;
  if (metrics_ != nullptr) {
    metrics_->RecordShedRetry(req->function, req->arrival);
  }
  if (drop_hook_) drop_hook_(*req);
}

void
Gateway::DropTerminal(Entry* e, workload::Request* req, bool redispatch)
{
  req->dropped = true;
  if (redispatch) req->done = true;
  if (e != nullptr) {
    ++e->c.dropped;
    if (redispatch) --e->c.outstanding;
  }
  if (metrics_ != nullptr && req->function != kInvalidFunction) {
    metrics_->RecordDrop(req->function, req->arrival);
  }
  if (drop_hook_ && req->function != kInvalidFunction) {
    drop_hook_(*req);
  }
}

void
Gateway::ScheduleRetry(Entry* e, workload::Request* req)
{
  Admission& a = e->adm;
  const int used = a.cfg.retry_budget - req->retries_left;
  --req->retries_left;
  TimeUs delay = a.cfg.retry_backoff << std::min(used, kMaxBackoffShift);
  delay += static_cast<TimeUs>(
      rng_.Uniform(0.0, 0.5 * static_cast<double>(delay)));
  if (delay < Us(1)) delay = Us(1);
  ++e->c.retry_pending;
  sim_->Post(sim_->now() + delay, [this, e, req] {
    --e->c.retry_pending;
    Redispatch(req);
  });
}

void
Gateway::AdmissionTick()
{
  double cap_total = 0.0;
  double backlog_total = 0.0;
  for (auto& [id, e] : functions_) {
    (void)id;
    Admission& a = e.adm;
    if (a.enabled && !a.forced) {
      if (a.window_sheds > 0) {
        // Multiplicative cut, anchored at the achieved rate on the
        // controller's first engagement (SNIPPETS Snippet 3 shape:
        // windowed achieved-vs-offered, adjust by delta).
        const double anchor =
            std::isfinite(a.admit_rate)
                ? a.admit_rate
                : static_cast<double>(a.window_admitted);
        a.admit_rate = std::max(kMinAdmitRate, anchor * kAimdCut);
      } else if (std::isfinite(a.admit_rate)) {
        a.admit_rate += kAimdStep;
      }
    }
    a.window_admitted = 0;
    a.window_sheds = 0;
    if (a.enabled && a.cfg.queue_cap > 0) {
      cap_total += a.cfg.queue_cap;
      backlog_total += static_cast<double>(e.c.outstanding);
    }
  }
  pressure_ = cap_total > 0.0 ? std::min(1.0, backlog_total / cap_total)
                              : 0.0;
}

void
Gateway::EnsureTickArmed()
{
  if (tick_armed_) return;
  tick_armed_ = true;
  sim_->SchedulePeriodic(sim_->now() + kAdmissionWindow, kAdmissionWindow,
                         [this] { AdmissionTick(); });
}

void
Gateway::ForceAdmitRate(FunctionId id, double rate)
{
  DILU_CHECK(rate > 0.0);
  Entry& e = functions_.Get(id);
  e.adm.forced = true;
  e.adm.enabled = true;
  e.adm.admit_rate = rate;
  // Fresh budget for the pinned window so the throttle takes effect at
  // `rate` rather than against admissions made before it engaged.
  e.adm.window_admitted = 0;
  EnsureTickArmed();
}

void
Gateway::ClearForcedAdmitRate(FunctionId id)
{
  Entry* e = functions_.Find(id);
  if (e == nullptr || !e->adm.forced) return;
  Admission& a = e->adm;
  a.forced = false;
  a.enabled = a.cfg.queue_cap > 0;
  // With a queue cap the AIMD controller resumes from the pinned rate;
  // otherwise the gate disengages back to legacy unbounded admission.
  if (!a.enabled) {
    a.admit_rate = std::numeric_limits<double>::infinity();
  }
}

double
Gateway::PollArrivals(FunctionId id)
{
  Entry* e = functions_.Find(id);
  if (e == nullptr) return 0.0;
  const double n = e->arrivals_since_poll;
  e->arrivals_since_poll = 0.0;
  return n;
}

double
Gateway::AverageArrivalRate(FunctionId id, TimeUs now) const
{
  if (now <= 0) return 0.0;
  const Entry* e = functions_.Find(id);
  if (e == nullptr) return 0.0;
  return static_cast<double>(e->c.arrivals) / ToSec(now);
}

const GatewayCounters&
Gateway::counters(FunctionId id) const
{
  static const GatewayCounters empty;
  const Entry* e = functions_.Find(id);
  return e == nullptr ? empty : e->c;
}

double
Gateway::admit_rate(FunctionId id) const
{
  const Entry* e = functions_.Find(id);
  return e == nullptr ? std::numeric_limits<double>::infinity()
                      : e->adm.admit_rate;
}

const std::vector<runtime::InferenceInstance*>&
Gateway::instances(FunctionId id) const
{
  static const std::vector<runtime::InferenceInstance*> empty;
  const Entry* e = functions_.Find(id);
  return e == nullptr ? empty : e->instances;
}

int
Gateway::RunningCount(FunctionId id) const
{
  int n = 0;
  for (const runtime::InferenceInstance* i : instances(id)) {
    if (i->running()) ++n;
  }
  return n;
}

}  // namespace dilu::cluster
