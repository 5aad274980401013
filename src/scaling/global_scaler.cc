#include "scaling/global_scaler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dilu::scaling {

int
DiluLazyScaler::Decide(double rps_sample, int current,
                       double per_instance_rps)
{
  window_.Push(rps_sample);
  DILU_CHECK(per_instance_rps > 0.0);
  const double capacity = current * per_instance_rps;
  if (window_.CountAbove(capacity) >= kPhiOut) {
    // Reset the window after a decision so one sustained surge scales
    // one step at a time rather than cascading on stale samples.
    window_.Clear();
    return current + 1;
  }
  if (holdoff_remaining_ > 0) {
    // A recovery launch is still warming up: the window reflects
    // degraded service, so a scale-in vote here is noise.
    --holdoff_remaining_;
    return current;
  }
  if (current > kMinInstances) {
    const double reduced = (current - 1) * per_instance_rps;
    if (window_.CountBelow(reduced) >= kPhiIn) {
      window_.Clear();
      return current - 1;
    }
  }
  return current;
}

void
DiluLazyScaler::OnRecoveryLaunch()
{
  holdoff_remaining_ = kRecoveryHoldoffS;
}

int
EagerScaler::Decide(double rps_sample, int current,
                    double per_instance_rps)
{
  window_.Push(rps_sample);
  DILU_CHECK(per_instance_rps > 0.0);
  const double capacity = current * per_instance_rps;
  if (window_.CountAbove(capacity) >= kOutVotes) {
    // Reactive burst response: jump straight to the rate the latest
    // sample implies (FaST-GS launches instances eagerly).
    const int needed = static_cast<int>(
        std::max(1.0, std::ceil(window_.latest() / per_instance_rps)));
    return std::max(current + 1, needed);
  }
  if (current > kMinInstances) {
    const double reduced = (current - 1) * per_instance_rps;
    if (window_.CountBelow(reduced) >= kInVotes) {
      return current - 1;
    }
  }
  return current;
}

int
KeepAliveScaler::Decide(double rps_sample, int current,
                        double per_instance_rps)
{
  window_.Push(rps_sample);
  DILU_CHECK(per_instance_rps > 0.0);
  const double capacity = current * per_instance_rps;
  if (window_.CountAbove(capacity) >= kOutVotes) {
    idle_seconds_ = 0;
    return current + 1;
  }
  const double reduced = (current - 1) * per_instance_rps;
  if (current > kMinInstances && rps_sample < reduced) {
    ++idle_seconds_;
    if (idle_seconds_ >= kKeepAliveS) {
      idle_seconds_ = 0;
      return current - 1;
    }
  } else {
    idle_seconds_ = 0;
  }
  return current;
}

std::unique_ptr<HorizontalPolicy>
MakeHorizontalPolicy(const std::string& name)
{
  if (name == "dilu-lazy") return std::make_unique<DiluLazyScaler>();
  if (name == "eager") return std::make_unique<EagerScaler>();
  if (name == "keep-alive") return std::make_unique<KeepAliveScaler>();
  Fatal("unknown horizontal policy: " + name);
}

}  // namespace dilu::scaling
