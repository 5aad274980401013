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

namespace {

// Step's two inputs. Each answers, for position i: the instance id,
// whether it is SLO-sensitive, its quota, the blocks it launched last
// period and its KLC inflation (asked only of SLO-sensitive ones), and
// takes its grant.

/** Tick(samples): a sample list in, a grant list out. */
struct SampleView {
  const std::vector<InstanceSample>& samples;
  std::vector<TokenGrant>& grants;

  std::size_t size() const { return samples.size(); }
  InstanceId id(std::size_t i) const { return samples[i].id; }
  bool slo_sensitive(std::size_t i) const
  {
    return samples[i].slo_sensitive;
  }
  const SmQuota& quota(std::size_t i) const { return samples[i].quota; }
  double blocks(std::size_t i) const { return samples[i].blocks_launched; }
  double inflation(std::size_t i) const { return samples[i].klc_inflation; }
  void Grant(std::size_t i, double tokens) const
  {
    grants[i] = TokenGrant{samples[i].id, tokens};
  }
};

/** Tick(attachments): the GPU's attachments, read and granted in
 *  place. */
struct AttachmentView {
  std::vector<gpusim::Attachment>& atts;

  std::size_t size() const { return atts.size(); }
  InstanceId id(std::size_t i) const { return atts[i].id; }
  bool slo_sensitive(std::size_t i) const
  {
    return atts[i].type == TaskType::kInference;
  }
  const SmQuota& quota(std::size_t i) const { return atts[i].quota; }
  double blocks(std::size_t i) const
  {
    return atts[i].client->blocks_launched();
  }
  double inflation(std::size_t i) const
  {
    return atts[i].client->KlcInflation();
  }
  void Grant(std::size_t i, double tokens) const
  {
    atts[i].granted =
        std::min(atts[i].demand, tokens / models::kBlocksPerQuantum);
  }
};

}  // namespace

TokenManager::TokenManager(double max_tokens) : max_tokens_(max_tokens)
{
  DILU_CHECK(max_tokens_ > 0.0);
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

template <typename View>
void
TokenManager::Step(const View& view)
{
  const std::size_t n = view.size();
  constexpr std::uint64_t window_mask_all = (1ull << kRateWindow) - 1;

  // Shift rate windows with the latest kernel execution rates
  // (Algorithm 2 line 11). The window only ever answers "was anything
  // launched?", so one bit per period suffices; busy_instances_ tracks
  // mask transitions to keep the co-runner-idle test O(1). The same
  // walk sums what the SLO-sensitive side launched (pass 2's floor).
  double slo_blocks = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double blocks = view.blocks(i);
    if (view.slo_sensitive(i)) slo_blocks += blocks;
    PerInstance& st = RecordAt(i, view.id(i));
    const bool was_busy = st.window_mask != 0;
    st.window_mask = ((st.window_mask << 1) | (blocks != 0.0 ? 1u : 0u))
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
  for (std::size_t i = 0; i < n; ++i) {
    if (!view.slo_sensitive(i)) continue;
    any_slo = true;
    PerInstance& st = records_[i];
    const SmQuota& quota = view.quota(i);
    const double klc_inflation = view.inflation(i);
    const double max_t = max_tokens_;
    double issue;
    ScalingState proposed;
    if (klc_inflation > kEtaViolation) {
      // Trigger protective logic: fast scale-up to the limit quota
      // (lines 14-15).
      proposed = ScalingState::kEmergency;
      issue = max_t * quota.limit;
    } else if (WindowIdle(st)) {
      // The instance launched nothing recently: scale down to request
      // (lines 16-17); collocated instances may regrow.
      proposed = ScalingState::kRecovery;
      issue = max_t * quota.request;
    } else if (OthersIdle(st)) {
      // Co-runners idle: regrow toward the limit (lines 18-19).
      proposed = ScalingState::kRecovery;
      const double base = st.seen ? st.last_issue : max_t * quota.request;
      issue = std::min(base * kEtaIncrease, max_t * quota.limit);
    } else {
      // Steady contention: hold at the request quota (lines 20-21),
      // with hysteresis: while mild KLC inflation persists after an
      // emergency, keep the lifted budget instead of oscillating
      // request <-> limit on every iteration.
      proposed = ScalingState::kContention;
      issue = std::min(max_t * quota.request * kSloCushion,
                       max_t * quota.limit);
      if (st.seen && klc_inflation > kEtaViolation / 2.0) {
        issue = std::max(
            issue, std::min(st.last_issue, max_t * quota.limit));
      }
    }
    const bool may_write = state_ != ScalingState::kEmergency
        || emergency_owner_ == st.id
        || proposed == ScalingState::kEmergency;
    if (may_write) {
      state_ = proposed;
      if (proposed == ScalingState::kEmergency) {
        emergency_owner_ = st.id;
        emergency_inflation_ = klc_inflation;
        emergency_now = true;
      } else {
        emergency_owner_ = kInvalidInstance;
      }
    }
    st.last_issue = issue;
    st.seen = true;
    view.Grant(i, issue);
    total_issued_ += issue;
  }

  if (!any_slo) {
    // Only best-effort instances: nothing to protect.
    state_ = n > 1 ? ScalingState::kContention : ScalingState::kNone;
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
  const bool solo = n == 1;
  // Introspective scale-down floor: the SLO-sensitive side launched
  // `slo_blocks` last period, so the co-runners can safely keep most of
  // the residual capacity even during an EMERGENCY — slashing below
  // that would idle SMs without helping the victim.
  const double emergency_floor =
      0.9 * std::max(0.0, max_tokens_ - slo_blocks);
  for (std::size_t i = 0; i < n; ++i) {
    if (view.slo_sensitive(i)) continue;
    PerInstance& st = records_[i];
    const SmQuota& quota = view.quota(i);
    const double max_t = max_tokens_;
    double issue;
    if (solo || state_ == ScalingState::kNone) {
      issue = max_t * quota.limit;                          // line 25
    } else if (!any_slo) {
      if (OthersIdle(st)) {
        const double base =
            st.seen ? st.last_issue : max_t * quota.request;
        issue = std::min(base * kEtaIncrease,
                         max_t * quota.limit);
      } else {
        issue = max_t * quota.request;
      }
    } else if (state_ == ScalingState::kEmergency) {
      // Scale down in proportion to the observed inflation. The paper
      // divides by dT; we divide by max(1 + dT, 1) so the budget always
      // shrinks (see header).
      const double base = st.seen
          ? std::min(max_t * quota.request, st.last_issue)
          : max_t * quota.request;
      issue = base / std::max(1.0 + emergency_inflation_, 1.0);  // line 27
      issue = std::min(std::max(issue, emergency_floor),
                       max_t * quota.request);
      st.suppressed = true;
    } else if (state_ == ScalingState::kRecovery) {
      const double base = st.seen ? st.last_issue : max_t * quota.request;
      issue = std::min(base * kEtaIncrease,
                       max_t * quota.limit);                 // line 29
      if (issue >= max_t * quota.request) st.suppressed = false;
    } else {  // CONTENTION
      // Steady multi-tenant pressure: never hold above the request (the
      // whole point of the <request, limit> band), and decay a
      // temporary emergency resize-down back up to the request.
      if (st.suppressed && st.seen) {
        issue = std::min(st.last_issue * kEtaIncrease,
                         max_t * quota.request);
        if (issue >= max_t * quota.request) st.suppressed = false;
      } else {
        issue = st.seen ? std::min(st.last_issue, max_t * quota.request)
                        : max_t * quota.request;
      }
    }
    st.last_issue = issue;
    st.seen = true;
    view.Grant(i, issue);
    total_issued_ += issue;
  }
}

const std::vector<TokenGrant>&
TokenManager::Tick(const std::vector<InstanceSample>& samples)
{
  // Pass 1 or pass 2 writes every grant, so no clearing is needed.
  grants_.resize(samples.size());
  Step(SampleView{samples, grants_});
  return grants_;
}

void
TokenManager::Tick(std::vector<gpusim::Attachment>& attachments)
{
  Step(AttachmentView{attachments});
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

DiluArbiter::DiluArbiter(double max_tokens) : manager_(max_tokens) {}

void
DiluArbiter::Resolve(gpusim::Gpu& gpu, TimeUs now)
{
  (void)now;
  manager_.Tick(gpu.attachments());
  gpusim::SqueezeToCapacity(gpu.attachments(), gpu.compute_capacity());
}

void
DiluArbiter::OnDetach(gpusim::Gpu& gpu, InstanceId id)
{
  (void)gpu;
  manager_.Forget(id);
}

}  // namespace dilu::rckm
