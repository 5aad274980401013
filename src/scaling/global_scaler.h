/**
 * @file
 * Horizontal scaling policies (Section 3.4.2).
 *
 * Each policy observes one per-second RPS sample per tick and answers
 * the desired instance count. Three policies reproduce the Table 3
 * comparison:
 *
 * - DiluLazyScaler: the paper's lazy scaling. A 40 s sliding window;
 *   scale out only when >= phi_out (20) samples exceed the deployed
 *   serving capacity (fast vertical scaling absorbs shorter bursts);
 *   scale in only when >= phi_in (30) samples fall below the capacity
 *   of (n - 1) instances.
 * - EagerScaler: FaST-GS+-style reactive scaling on a short window —
 *   many cold starts, eager terminations.
 * - KeepAliveScaler: INFless+-style prediction with keep-alive: scales
 *   out moderately fast but holds idle instances for a keep-alive
 *   period, trading GPU time for fewer cold starts.
 */
#ifndef DILU_SCALING_GLOBAL_SCALER_H_
#define DILU_SCALING_GLOBAL_SCALER_H_

#include <memory>
#include <string>

#include "scaling/sliding_window.h"

namespace dilu::scaling {

/** Per-function horizontal scaling policy. */
class HorizontalPolicy {
 public:
  virtual ~HorizontalPolicy() = default;

  /**
   * Feed one per-second RPS sample; returns the desired instance count
   * given `current` deployed (including still-cold) instances.
   * @param per_instance_rps  profiled serving throughput per instance.
   *        The cluster layer derates this by the fleet's degraded-GPU
   *        capacity factors (a straggler-hosted instance serves less
   *        than profiled), so policies automatically scale out when
   *        degradation eats real capacity — no policy change needed.
   */
  virtual int Decide(double rps_sample, int current,
                     double per_instance_rps) = 0;

  /**
   * Notification that a *recovery* instance was just launched for this
   * function (failure/drain replacement, not a demand scale-out).
   * Policies may use it to avoid fighting the healing pipeline — e.g.
   * suppressing scale-in while replacements are still cold-starting.
   * Default: ignore.
   */
  virtual void OnRecoveryLaunch() {}

  virtual std::string name() const = 0;
};

/** Instance floor of every policy: none scales in below it. */
constexpr int kMinInstances = 1;

/** Dilu's lazy 2D-co-scaling horizontal half. */
class DiluLazyScaler : public HorizontalPolicy {
 public:
  static constexpr std::size_t kWindow = 40;  ///< sliding window (s)
  /** phi_out: samples above capacity to scale out. */
  static constexpr int kPhiOut = 20;
  /** phi_in: samples below (n-1)-capacity to scale in. */
  static constexpr int kPhiIn = 30;
  /**
   * Seconds after a recovery launch during which scale-in is
   * suppressed. A replacement cold-starts for seconds while the
   * arrival window still reflects degraded service; scaling in on
   * that stale signal would undo the healing. Scale-out stays live.
   */
  static constexpr int kRecoveryHoldoffS = 40;

  int Decide(double rps_sample, int current,
             double per_instance_rps) override;
  void OnRecoveryLaunch() override;
  std::string name() const override { return "dilu-lazy"; }

 private:
  SlidingWindow window_{kWindow};
  int holdoff_remaining_ = 0;  ///< scale-in-suppressed samples left
};

/** Reactive short-window scaling (FaST-GS+ analogue). */
class EagerScaler : public HorizontalPolicy {
 public:
  static constexpr std::size_t kWindow = 3;  ///< sliding window (s)
  static constexpr int kOutVotes = 2;  ///< samples above, to scale out
  static constexpr int kInVotes = 3;   ///< samples below, to scale in

  int Decide(double rps_sample, int current,
             double per_instance_rps) override;
  std::string name() const override { return "eager"; }

 private:
  SlidingWindow window_{kWindow};
};

/** Prediction + keep-alive scaling (INFless+ analogue). */
class KeepAliveScaler : public HorizontalPolicy {
 public:
  static constexpr std::size_t kWindow = 10;  ///< sliding window (s)
  static constexpr int kOutVotes = 5;  ///< samples above, to scale out
  static constexpr int kKeepAliveS = 60;  ///< idle s before scale-in

  int Decide(double rps_sample, int current,
             double per_instance_rps) override;
  std::string name() const override { return "keep-alive"; }

 private:
  SlidingWindow window_{kWindow};
  int idle_seconds_ = 0;
};

/** Policy factory by name: "dilu-lazy", "eager", "keep-alive". */
std::unique_ptr<HorizontalPolicy> MakeHorizontalPolicy(
    const std::string& name);

}  // namespace dilu::scaling

#endif  // DILU_SCALING_GLOBAL_SCALER_H_
