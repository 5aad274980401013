#include "chaos/chaos_engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "workload/arrival.h"

namespace dilu::chaos {
namespace {

/** Recovery-watch poll cadence (coarse enough to stay cheap, fine
 *  enough that TTR resolution is far below any real cold start). */
constexpr TimeUs kWatchPeriod = Ms(500);

}  // namespace

ChaosEngine::ChaosEngine(cluster::ClusterRuntime* runtime,
                         ScenarioSpec spec)
    : rt_(runtime), spec_(std::move(spec))
{
  DILU_CHECK(runtime != nullptr);
}

void
ChaosEngine::Arm()
{
  if (armed_) return;
  armed_ = true;
  sorted_ = spec_.Sorted();
  outcomes_.resize(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    outcomes_[i].event = sorted_[i];
    if (sorted_[i].at < rt_->now()) {
      DILU_WARN << "chaos event '" << FormatEventLine(sorted_[i])
                << "' scheduled in the past; skipped";
      continue;
    }
    rt_->simulation().Post(sorted_[i].at, [this, i] { Inject(i); });
  }
}

void
ChaosEngine::Inject(std::size_t index)
{
  const ScenarioEvent& e = sorted_[index];
  FaultOutcome& out = outcomes_[index];
  out.injected = true;
  // Snapshot service levels before the hit so recovery has a target.
  if (IsDisruptive(e.kind)) BeginRecoveryWatch(index);

  switch (e.kind) {
    case FaultKind::kGpuFail:
      out.displaced = rt_->FailGpu(e.target);
      break;
    case FaultKind::kGpuRecover:
      rt_->RecoverGpu(e.target);
      break;
    case FaultKind::kNodeFail:
      out.displaced = rt_->FailNode(e.target);
      break;
    case FaultKind::kNodeRecover:
      rt_->RecoverNode(e.target);
      break;
    case FaultKind::kNodeDrain:
      out.displaced = rt_->DrainNode(e.target);
      break;
    case FaultKind::kNodeUndrain:
      rt_->UndrainNode(e.target);
      break;
    case FaultKind::kGpuDegrade:
      // Displaces nothing: resident instances keep running at the
      // surviving capacity (the KLC/scaler signal reacts, not the
      // recovery pipeline), so no recovery watch is armed.
      rt_->DegradeGpu(e.target, e.magnitude);
      break;
    case FaultKind::kGpuStraggle:
      rt_->StraggleGpu(e.target, e.magnitude);
      break;
    case FaultKind::kCheckpointEvery:
      rt_->SetCheckpointPolicy(e.function, e.duration, e.save_cost);
      rt_->metrics().RecordFault(
          rt_->now(), "checkpoint_policy",
          "fn=" + std::to_string(e.function) + " every="
              + std::to_string(ToSec(e.duration)) + "s"
              + (e.save_cost > 0
                     ? " save=" + std::to_string(ToSec(e.save_cost)) + "s"
                     : ""));
      break;
    case FaultKind::kColdStartInflation: {
      // Overlapping windows: the newest factor wins immediately, and
      // an older window's end must not restore nominal mid-way through
      // a newer window — only the newest epoch's end event resets.
      rt_->set_coldstart_scale(e.magnitude);
      rt_->metrics().RecordFault(rt_->now(), "coldstart_inflation",
                                 "x" + std::to_string(e.magnitude));
      const std::uint64_t epoch = ++inflation_epoch_;
      rt_->simulation().Post(
          rt_->now() + e.duration, [this, epoch] {
            if (epoch != inflation_epoch_) return;  // superseded
            rt_->set_coldstart_scale(1.0);
            rt_->metrics().RecordFault(rt_->now(), "coldstart_nominal",
                                       "inflation window over");
          });
      break;
    }
    case FaultKind::kTrafficSurge: {
      // The surge's arrival stream derives its seed from the cluster
      // seed and the event index: independent of every other stream,
      // identical across replays.
      Rng rng(rt_->config().seed * 7919
              + static_cast<std::uint64_t>(index) * 104729 + 17);
      rt_->AttachArrivals(
          e.function,
          std::make_unique<workload::PoissonArrivals>(e.magnitude, rng),
          rt_->now() + e.duration);
      rt_->metrics().RecordFault(
          rt_->now(), "surge",
          "fn=" + std::to_string(e.function) + " rps="
              + std::to_string(e.magnitude));
      break;
    }
    case FaultKind::kOverload: {
      // "x4 overload" tracks the function's real traffic level: measure
      // the lifetime-average offered rate at injection time and attach
      // (factor - 1)x that as extra Poisson arrivals. Seeded like a
      // surge: (cluster seed, event index), identical across replays.
      const double base_rps =
          rt_->gateway().AverageArrivalRate(e.function, rt_->now());
      const double extra_rps = base_rps * (e.magnitude - 1.0);
      if (extra_rps > 0.0) {
        Rng rng(rt_->config().seed * 7919
                + static_cast<std::uint64_t>(index) * 104729 + 17);
        rt_->AttachArrivals(e.function,
                            std::make_unique<workload::PoissonArrivals>(
                                extra_rps, rng),
                            rt_->now() + e.duration);
      }
      rt_->metrics().RecordFault(
          rt_->now(), "overload",
          "fn=" + std::to_string(e.function) + " x"
              + std::to_string(e.magnitude) + " extra_rps="
              + std::to_string(extra_rps));
      BeginShedWatch(index, e.function, rt_->now() + e.duration);
      break;
    }
    case FaultKind::kThrottleAdmit: {
      rt_->gateway().ForceAdmitRate(e.function, e.magnitude);
      rt_->metrics().RecordFault(
          rt_->now(), "throttle_admit",
          "fn=" + std::to_string(e.function) + " rate="
              + std::to_string(e.magnitude));
      // Overlapping throttles on one function: only the newest window's
      // end releases the pin (same epoch idiom as inflation windows).
      const std::uint64_t epoch = ++throttle_epochs_[e.function];
      const FunctionId fn = e.function;
      rt_->simulation().Post(
          rt_->now() + e.duration, [this, fn, epoch] {
            if (epoch != throttle_epochs_[fn]) return;  // superseded
            rt_->gateway().ClearForcedAdmitRate(fn);
            rt_->metrics().RecordFault(rt_->now(), "admit_nominal",
                                       "fn=" + std::to_string(fn));
          });
      BeginShedWatch(index, e.function, rt_->now() + e.duration);
      break;
    }
    case FaultKind::kLinkFail: {
      rt_->metrics().RecordFault(
          rt_->now(), "fail_link",
          "node=" + std::to_string(e.target) + " for="
              + std::to_string(ToSec(e.duration)) + "s");
      if (fabric::FabricPlane* fp = rt_->fabric()) {
        fp->FailLink(e.target, rt_->now() + e.duration);
        BeginFabricWatch(index, e.target, rt_->now() + e.duration);
      }
      break;
    }
    case FaultKind::kStorageBrownout: {
      rt_->metrics().RecordFault(rt_->now(), "storage_brownout",
                                 "x" + std::to_string(e.magnitude));
      if (rt_->fabric() != nullptr) {
        rt_->fabric()->SetStorageBrownout(e.magnitude);
        // Overlapping brownouts: the newest factor wins, and only the
        // newest epoch's window end restores nominal service (same
        // idiom as the inflation / throttle windows).
        const std::uint64_t epoch = ++brownout_epoch_;
        rt_->simulation().Post(
            rt_->now() + e.duration, [this, epoch] {
              if (epoch != brownout_epoch_) return;  // superseded
              if (rt_->fabric() != nullptr) {
                rt_->fabric()->SetStorageBrownout(1.0);
              }
              rt_->metrics().RecordFault(rt_->now(), "storage_nominal",
                                         "brownout window over");
            });
        BeginFabricWatch(index, /*node=*/-1, rt_->now() + e.duration);
      }
      break;
    }
  }

  if (IsDisruptive(e.kind)) {
    // Narrow the snapshot to what the fault actually hit, now that
    // the kills/migrations for it have executed synchronously.
    FocusWatchOnAffected();
  } else if (!IsShedding(e.kind)
             && !(IsFabric(e.kind) && rt_->fabric() != nullptr)) {
    // A non-displacing fault needs no healing: it is its own recovery.
    // (Shedding events recover through their shed watch, fabric
    // outages on a fabric-enabled cluster through their fabric watch;
    // a fabric verb on a fabric-less cluster is a no-op and lands
    // here.)
    out.recovered_at = rt_->now();
  }
}

void
ChaosEngine::BeginRecoveryWatch(std::size_t index)
{
  Watch w;
  w.outcome = index;
  for (FunctionId fn : rt_->DeployedFunctions()) {
    const int running = rt_->gateway().RunningCount(fn);
    if (running > 0) w.pre_running[fn] = running;
    const auto& f = rt_->function(fn);
    if (f.spec.type == TaskType::kTraining && f.job
        && f.job_completed_at < 0) {
      w.pre_training.push_back(fn);
    }
  }
  watches_.push_back(std::move(w));
  EnsureWatchArmed();
}

void
ChaosEngine::BeginShedWatch(std::size_t index, FunctionId fn,
                            TimeUs window_end)
{
  ShedWatch w;
  w.outcome = index;
  w.fn = fn;
  w.window_end = window_end;
  w.last_sheds = ShedTotal(fn);
  shed_watches_.push_back(w);
  EnsureWatchArmed();
}

void
ChaosEngine::BeginFabricWatch(std::size_t index, NodeId node,
                              TimeUs window_end)
{
  FabricWatch w;
  w.outcome = index;
  w.node = node;
  w.window_end = window_end;
  fabric_watches_.push_back(w);
  EnsureWatchArmed();
}

std::int64_t
ChaosEngine::ShedTotal(FunctionId fn) const
{
  const cluster::GatewayCounters& c = rt_->gateway().counters(fn);
  return c.shed_admission + c.shed_retry;
}

void
ChaosEngine::EnsureWatchArmed()
{
  if (watch_armed_) return;
  watch_armed_ = true;
  watch_task_ = rt_->simulation().SchedulePeriodic(
      rt_->now() + kWatchPeriod, kWatchPeriod, [this] { WatchTick(); });
}

void
ChaosEngine::FocusWatchOnAffected()
{
  DILU_CHECK(!watches_.empty());
  Watch& w = watches_.back();
  // An inference function is affected iff the fault just cost it
  // running capacity (kills and drain removals are synchronous).
  // Keeping unaffected functions in the watch would let an unrelated
  // autoscaler scale-in block heal detection forever.
  for (auto it = w.pre_running.begin(); it != w.pre_running.end();) {
    if (rt_->gateway().RunningCount(it->first) >= it->second) {
      it = w.pre_running.erase(it);
    } else {
      ++it;
    }
  }
}

bool
ChaosEngine::TrainingHealed(FunctionId fn)
{
  const auto& f = rt_->function(fn);
  if (f.job_completed_at >= 0) return true;  // finished meanwhile
  if (!f.job || f.live_instances.empty()) return false;  // not re-placed
  // Healed only once every restarted worker finished its cold start:
  // TTR includes the recovery cold start for training too.
  for (InstanceId id : f.live_instances) {
    const runtime::Instance* inst = rt_->instance(id);
    if (inst == nullptr || !inst->running()) return false;
  }
  return true;
}

void
ChaosEngine::WatchTick()
{
  for (auto it = watches_.begin(); it != watches_.end();) {
    bool healed = rt_->pending_recovery_count() == 0;
    if (healed) {
      for (const auto& [fn, pre] : it->pre_running) {
        if (rt_->gateway().RunningCount(fn) < pre) {
          healed = false;
          break;
        }
      }
    }
    if (healed) {
      for (FunctionId fn : it->pre_training) {
        if (!TrainingHealed(fn)) {
          healed = false;
          break;
        }
      }
    }
    if (healed) {
      outcomes_[it->outcome].recovered_at = rt_->now();
      it = watches_.erase(it);
    } else {
      ++it;
    }
  }
  // Shed watches: recovered once a full poll period past the pressure
  // window sees no new sheds on the target function.
  for (auto it = shed_watches_.begin(); it != shed_watches_.end();) {
    const std::int64_t sheds = ShedTotal(it->fn);
    if (rt_->now() > it->window_end && sheds == it->last_sheds) {
      outcomes_[it->outcome].recovered_at = rt_->now();
      it = shed_watches_.erase(it);
    } else {
      it->last_sheds = sheds;
      ++it;
    }
  }
  // Fabric watches: recovered once the outage window has closed and
  // the affected tier worked off its transfer backlog.
  for (auto it = fabric_watches_.begin(); it != fabric_watches_.end();) {
    const fabric::FabricPlane* fp = rt_->fabric();
    const TimeUs backlog = fp == nullptr ? 0
        : it->node >= 0 ? fp->NetworkBacklogUs(it->node, rt_->now())
                        : fp->StorageBacklogUs(rt_->now());
    if (rt_->now() >= it->window_end && backlog == 0) {
      outcomes_[it->outcome].recovered_at = rt_->now();
      it = fabric_watches_.erase(it);
    } else {
      ++it;
    }
  }
  if (watches_.empty() && shed_watches_.empty()
      && fabric_watches_.empty() && watch_armed_) {
    rt_->simulation().StopPeriodic(watch_task_);
    watch_armed_ = false;
  }
}

ChaosVerdict
ChaosEngine::Verdict() const
{
  return VerdictOf(outcomes_);
}

ChaosVerdict
ChaosEngine::VerdictOf(const std::vector<FaultOutcome>& outcomes)
{
  ChaosVerdict v;
  double ttr_sum_s = 0.0;
  double ttsr_sum_s = 0.0;
  for (const FaultOutcome& o : outcomes) {
    if (!o.injected) continue;
    ++v.injected;
    if (IsShedding(o.event.kind)) {
      ++v.shed_events;
      const TimeUs ttsr = o.TimeToShedRecover();
      if (ttsr < 0) continue;
      ++v.shed_recovered;
      ttsr_sum_s += ToSec(ttsr);
      v.max_ttsr_s = std::max(v.max_ttsr_s, ToSec(ttsr));
      continue;
    }
    if (!IsDisruptive(o.event.kind) && !IsFabric(o.event.kind)) continue;
    ++v.disruptive;
    const TimeUs ttr = o.TimeToRecover();
    if (ttr < 0) continue;
    ++v.recovered;
    ttr_sum_s += ToSec(ttr);
    v.max_ttr_s = std::max(v.max_ttr_s, ToSec(ttr));
  }
  if (v.recovered > 0) v.mean_ttr_s = ttr_sum_s / v.recovered;
  if (v.shed_recovered > 0) v.mean_ttsr_s = ttsr_sum_s / v.shed_recovered;
  return v;
}

}  // namespace dilu::chaos
