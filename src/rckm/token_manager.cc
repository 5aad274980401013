#include "rckm/token_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace dilu::rckm {

const char*
ToString(ScalingState s)
{
  switch (s) {
    case ScalingState::kNone: return "NONE";
    case ScalingState::kEmergency: return "EMERGENCY";
    case ScalingState::kRecovery: return "RECOVERY";
    case ScalingState::kContention: return "CONTENTION";
  }
  return "?";
}

TokenManager::TokenManager(TokenManagerConfig config)
    : config_(config)
{
  DILU_CHECK(config_.max_tokens > 0.0);
  DILU_CHECK(config_.rate_window > 0);
  // The window lives in a 64-bit mask; 63 periods (315 ms) is far past
  // any useful introspection horizon.
  DILU_CHECK(config_.rate_window <= 63);
}

TokenManager::PerInstance&
TokenManager::RecordAt(std::size_t i, InstanceId id)
{
  if (i < records_.size() && records_[i].id == id) return records_[i];
  // Attach/detach churn or a first sighting: scan the (collocation-
  // sized) list and move the record into place, so the next period
  // hits at position i again.
  auto it = std::find_if(records_.begin(), records_.end(),
                         [id](const PerInstance& r) { return r.id == id; });
  if (it == records_.end()) {
    records_.push_back(PerInstance{id});
    it = records_.end() - 1;
  }
  const auto at = records_.begin() + static_cast<std::ptrdiff_t>(i);
  // Records before position i belong to samples[0..i), and an instance
  // is sampled at most once per period.
  DILU_CHECK(it >= at);
  std::rotate(at, it, it + 1);
  return *at;
}

const std::vector<TokenGrant>&
TokenManager::Tick(const std::vector<InstanceSample>& samples)
{
  const std::uint64_t window_mask_all =
      (1ull << static_cast<unsigned>(config_.rate_window)) - 1;

  // Pass 1 or pass 2 writes every grant, so no clearing is needed.
  grants_.resize(samples.size());

  // Shift rate windows with the latest kernel execution rates
  // (Algorithm 2 line 11). The window only ever answers "was anything
  // launched?", so one bit per period suffices; busy_instances_ tracks
  // mask transitions to keep the co-runner-idle test O(1).
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const InstanceSample& s = samples[i];
    PerInstance& st = RecordAt(i, s.id);
    const bool was_busy = st.window_mask != 0;
    st.window_mask = ((st.window_mask << 1)
                      | (s.blocks_launched != 0.0 ? 1u : 0u))
        & window_mask_all;
    const bool is_busy = st.window_mask != 0;
    busy_instances_ += (is_busy ? 1 : 0) - (was_busy ? 1 : 0);
  }

  // Pass 1: SLO-sensitive instances drive the global state. Each branch
  // proposes a state (Algorithm 2 writes it unconditionally); the
  // proposal is applied unless the GPU is in EMERGENCY and this
  // instance is not the owner ("only the current instance can reset or
  // modify the EMERGENCY state").
  bool any_slo = false;
  bool emergency_now = false;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const InstanceSample& s = samples[i];
    if (!s.slo_sensitive) continue;
    any_slo = true;
    PerInstance& st = records_[i];
    const double max_t = config_.max_tokens;
    double issue;
    ScalingState proposed;
    if (s.klc_inflation > config_.eta_violation) {
      // Trigger protective logic: fast scale-up to the limit quota
      // (lines 14-15).
      proposed = ScalingState::kEmergency;
      issue = max_t * s.quota.limit;
    } else if (WindowIdle(st)) {
      // The instance launched nothing recently: scale down to request
      // (lines 16-17); collocated instances may regrow.
      proposed = ScalingState::kRecovery;
      issue = max_t * s.quota.request;
    } else if (OthersIdle(st)) {
      // Co-runners idle: regrow toward the limit (lines 18-19).
      proposed = ScalingState::kRecovery;
      const double base = st.seen ? st.last_issue : max_t * s.quota.request;
      issue = std::min(base * config_.eta_increase, max_t * s.quota.limit);
    } else {
      // Steady contention: hold at the request quota (lines 20-21),
      // with hysteresis: while mild KLC inflation persists after an
      // emergency, keep the lifted budget instead of oscillating
      // request <-> limit on every iteration.
      proposed = ScalingState::kContention;
      issue = std::min(max_t * s.quota.request * config_.slo_cushion,
                       max_t * s.quota.limit);
      if (st.seen && s.klc_inflation > config_.eta_violation / 2.0) {
        issue = std::max(
            issue, std::min(st.last_issue, max_t * s.quota.limit));
      }
    }
    const bool may_write = state_ != ScalingState::kEmergency
        || emergency_owner_ == s.id
        || proposed == ScalingState::kEmergency;
    if (may_write) {
      state_ = proposed;
      if (proposed == ScalingState::kEmergency) {
        emergency_owner_ = s.id;
        emergency_inflation_ = s.klc_inflation;
        emergency_now = true;
      } else {
        emergency_owner_ = kInvalidInstance;
      }
    }
    st.last_issue = issue;
    st.seen = true;
    grants_[i] = TokenGrant{s.id, issue};
    total_issued_ += issue;
  }

  if (!any_slo) {
    // Only best-effort instances: nothing to protect.
    state_ = samples.size() > 1 ? ScalingState::kContention
                                : ScalingState::kNone;
    emergency_owner_ = kInvalidInstance;
  } else if (!emergency_now && state_ == ScalingState::kEmergency
             && emergency_owner_ == kInvalidInstance) {
    state_ = ScalingState::kRecovery;
  }

  // Pass 2: non-SLO-sensitive (training / best-effort) instances follow
  // the global state (lines 22-31). With no SLO-sensitive co-runner the
  // global state carries no signal, so best-effort instances use the
  // same window heuristics directly: regrow toward the limit while the
  // co-runners idle (comm phases of lockstep training), fall back to
  // the request when everyone computes — this is what lets collocated
  // training pairs overlap comm with compute (Fig 9).
  const bool solo = samples.size() == 1;
  // Introspective scale-down floor: the SLO-sensitive side launched
  // `slo_blocks` last period, so the co-runners can safely keep most of
  // the residual capacity even during an EMERGENCY — slashing below
  // that would idle SMs without helping the victim.
  double slo_blocks = 0.0;
  for (const InstanceSample& s : samples) {
    if (s.slo_sensitive) slo_blocks += s.blocks_launched;
  }
  const double emergency_floor =
      0.9 * std::max(0.0, config_.max_tokens - slo_blocks);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const InstanceSample& s = samples[i];
    if (s.slo_sensitive) continue;
    PerInstance& st = records_[i];
    const double max_t = config_.max_tokens;
    double issue;
    if (solo || state_ == ScalingState::kNone) {
      issue = max_t * s.quota.limit;                          // line 25
    } else if (!any_slo) {
      if (OthersIdle(st)) {
        const double base =
            st.seen ? st.last_issue : max_t * s.quota.request;
        issue = std::min(base * config_.eta_increase,
                         max_t * s.quota.limit);
      } else {
        issue = max_t * s.quota.request;
      }
    } else if (state_ == ScalingState::kEmergency) {
      // Scale down in proportion to the observed inflation. The paper
      // divides by dT; we divide by max(1 + dT, 1) so the budget always
      // shrinks (see header).
      const double base = st.seen
          ? std::min(max_t * s.quota.request, st.last_issue)
          : max_t * s.quota.request;
      issue = base / std::max(1.0 + emergency_inflation_, 1.0);  // line 27
      issue = std::min(std::max(issue, emergency_floor),
                       max_t * s.quota.request);
      st.suppressed = true;
    } else if (state_ == ScalingState::kRecovery) {
      const double base = st.seen ? st.last_issue : max_t * s.quota.request;
      issue = std::min(base * config_.eta_increase,
                       max_t * s.quota.limit);                 // line 29
      if (issue >= max_t * s.quota.request) st.suppressed = false;
    } else {  // CONTENTION
      // Steady multi-tenant pressure: never hold above the request (the
      // whole point of the <request, limit> band), and decay a
      // temporary emergency resize-down back up to the request.
      if (st.suppressed && st.seen) {
        issue = std::min(st.last_issue * config_.eta_increase,
                         max_t * s.quota.request);
        if (issue >= max_t * s.quota.request) st.suppressed = false;
      } else {
        issue = st.seen ? std::min(st.last_issue, max_t * s.quota.request)
                        : max_t * s.quota.request;
      }
    }
    st.last_issue = issue;
    st.seen = true;
    grants_[i] = TokenGrant{s.id, issue};
    total_issued_ += issue;
  }

  return grants_;
}

void
TokenManager::Forget(InstanceId id)
{
  auto it = std::find_if(records_.begin(), records_.end(),
                         [id](const PerInstance& r) { return r.id == id; });
  if (it != records_.end()) {
    if (it->window_mask != 0) --busy_instances_;
    records_.erase(it);  // stable: survivors keep attachment order
  }
  if (emergency_owner_ == id) {
    emergency_owner_ = kInvalidInstance;
    if (state_ == ScalingState::kEmergency) {
      state_ = ScalingState::kRecovery;
    }
  }
}

DiluArbiter::DiluArbiter(TokenManagerConfig config)
    : manager_(config)
{
}

void
DiluArbiter::Resolve(gpusim::Gpu& gpu, TimeUs now)
{
  (void)now;
  samples_.clear();
  samples_.reserve(gpu.attachments().size());
  for (const gpusim::Attachment& a : gpu.attachments()) {
    InstanceSample s;
    s.id = a.id;
    s.slo_sensitive = (a.type == TaskType::kInference);
    s.quota = a.quota;
    s.blocks_launched = a.client->BlocksLaunchedLastQuantum(a.slot);
    s.klc_inflation = a.client->KlcInflation();
    samples_.push_back(s);
  }
  const std::vector<TokenGrant>& grants = manager_.Tick(samples_);
  std::vector<gpusim::Attachment>& atts = gpu.attachments();
  DILU_CHECK(grants.size() == atts.size());
  for (std::size_t i = 0; i < atts.size(); ++i) {
    const double cap = grants[i].tokens / models::kBlocksPerQuantum;
    atts[i].granted = std::min(atts[i].demand, cap);
  }
  gpusim::SqueezeToCapacity(atts, gpu.compute_capacity());
}

void
DiluArbiter::OnDetach(gpusim::Gpu& gpu, InstanceId id)
{
  (void)gpu;
  manager_.Forget(id);
}

}  // namespace dilu::rckm
