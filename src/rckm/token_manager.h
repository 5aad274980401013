/**
 * @file
 * Real-time CUDA Kernel Manager (RCKM): the paper's fast vertical
 * scaling mechanism (Section 3.4.1, Algorithm 2).
 *
 * Every token period (5 ms) the manager issues each collocated instance
 * a token budget — the number of CUDA kernel blocks it may launch this
 * period — based on its profiled <request, limit> quota, its task type
 * (SLO-sensitive or not), recent kernel-launch rate windows, and the
 * KLC inflation signal. The DiluArbiter then converts token budgets into
 * SM-share caps for the GPU engine, yielding introspective vertical
 * elasticity: fast scale-up under bursts (EMERGENCY), gradual recovery
 * toward limits when co-runners idle (RECOVERY), and fallback to
 * requests under steady contention (CONTENTION).
 *
 * Hot-path design: `Tick` runs once per 5 ms quantum per GPU for the
 * whole simulated fleet, so its state is flat and allocation-free in
 * steady state — per-instance records are kept in the GPU's attachment
 * order (attach appends, detach erases stably), so attachment i finds
 * its record at position i with one id compare, and the rate windows
 * are fixed-size bit rings (one bit per period: "launched anything").
 * The arbiter runs Algorithm 2 straight over the GPU's attachments:
 * each attachment's launched blocks are read once from the count its
 * client published (a load, no virtual call), its KLC inflation only
 * if it is SLO-sensitive, and its grant is written back in place, with
 * no per-period sample or grant copies. Heap traffic occurs only
 * when the record count passes its high-water mark.
 */
#ifndef DILU_RCKM_TOKEN_MANAGER_H_
#define DILU_RCKM_TOKEN_MANAGER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "gpusim/gpu.h"
#include "models/cost_model.h"

namespace dilu::rckm {

/** Global per-GPU scaling state (Algorithm 2). */
enum class ScalingState {
  kNone,        ///< no collocation pressure
  kEmergency,   ///< an SLO-sensitive instance saw KLC inflation
  kRecovery,    ///< pressure released; co-runners regrow toward limits
  kContention,  ///< steady multi-tenant load; hold at requests
};

const char* ToString(ScalingState s);

// Algorithm 2's constants (paper defaults). MaxTokens, the Fig 18(b)
// sensitivity knob, is the one TokenManager parameter.

/** KLC inflation threshold that triggers EMERGENCY (eta_violation). */
constexpr double kEtaViolation = 0.15;
/** Multiplicative regrowth factor in RECOVERY (eta_increase). */
constexpr double kEtaIncrease = 1.25;
/** Rate-window length in token periods (8 * 5 ms = 40 ms). The window
 *  is kept as a 64-bit mask of launched-anything flags; 63 periods
 *  (315 ms) is far past any useful introspection horizon. */
constexpr int kRateWindow = 8;
static_assert(kRateWindow > 0 && kRateWindow <= 63);
/** Cushion over the request for SLO-sensitive instances under steady
 *  contention: the profiled request sits exactly at the exec budget,
 *  so a small margin absorbs arbitration jitter without giving up
 *  the <request, limit> band. */
constexpr double kSloCushion = 1.15;

/** Per-instance inputs sampled each period. */
struct InstanceSample {
  InstanceId id = kInvalidInstance;
  bool slo_sensitive = false;
  SmQuota quota;
  double blocks_launched = 0.0;  ///< kernel blocks launched last period
  double klc_inflation = 0.0;    ///< dT from the instance's KlcMonitor
};

/** Per-instance output: the issued token budget for this period. */
struct TokenGrant {
  InstanceId id = kInvalidInstance;
  double tokens = 0.0;
};

/**
 * Algorithm 2 state machine for one GPU.
 *
 * Deviation note: line 27 of the paper divides the scale-down budget by
 * dT, which *increases* it whenever dT < 1; we divide by
 * max(1 + dT, 1) so the collocated instance always shrinks
 * proportionally to the observed inflation. This note is the record of
 * the deviation; no separate design document exists.
 */
class TokenManager {
 public:
  /**
   * @param max_tokens  tokens issuable per period (MaxTokens); the
   *   device executes models::kBlocksPerQuantum blocks per period at
   *   full rate.
   */
  explicit TokenManager(double max_tokens = models::kBlocksPerQuantum);

  /**
   * Issue token budgets for all instances on the GPU for this period.
   * `samples` must contain every currently attached instance, once
   * each, in a stable order (the attachment order); a reordered or
   * changed sample list costs one linear scan per moved instance.
   * @return grants aligned index-for-index with `samples` (grant i is
   *   for samples[i]; the id is repeated for convenience). The storage
   *   is owned by the manager and reused by the next Tick.
   */
  const std::vector<TokenGrant>& Tick(
      const std::vector<InstanceSample>& samples);

  /**
   * The same period run over a GPU's attachments (the DiluArbiter
   * path): each one is sampled in place, SLO-sensitive = inference,
   * and its grant is written as the SM-share cap
   * `granted = min(demand, tokens / kBlocksPerQuantum)`. Identical to
   * Tick(samples) over the samples the attachments describe.
   */
  void Tick(std::vector<gpusim::Attachment>& attachments);

  /** Drop per-instance state (on instance termination). */
  void Forget(InstanceId id);

  ScalingState state() const { return state_; }

  /** Total tokens issued since construction (Fig 14 accounting). */
  double total_tokens_issued() const { return total_issued_; }

 private:
  struct PerInstance {
    InstanceId id = kInvalidInstance;
    /** Bit i set = launched kernels i periods ago (bit ring, newest in
     *  bit 0, masked to kRateWindow bits). */
    std::uint64_t window_mask = 0;
    double last_issue = 0.0;
    bool seen = false;
    /** Resized down by an EMERGENCY; decays back toward the request
     *  under CONTENTION (the paper's scale-down is "temporary"). */
    bool suppressed = false;
  };

  /**
   * Algorithm 2 for one period over `view`'s instances, which answer
   * by position (size, id, slo_sensitive, quota, blocks, inflation)
   * and take their grants (Grant); both Ticks instantiate it.
   */
  template <typename View>
  void Step(const View& view);

  /** Record for `id`, moved to position `i` (created on first sight). */
  PerInstance& RecordAt(std::size_t i, InstanceId id);

  /** True when the instance launched nothing across its window. */
  static bool WindowIdle(const PerInstance& s) { return s.window_mask == 0; }

  /** True when every *other* tracked instance's window is idle. */
  bool OthersIdle(const PerInstance& self) const
  {
    return busy_instances_ - (WindowIdle(self) ? 0 : 1) == 0;
  }

  double max_tokens_;
  ScalingState state_ = ScalingState::kNone;
  InstanceId emergency_owner_ = kInvalidInstance;
  double emergency_inflation_ = 0.0;
  /** Per-instance records; after a Tick, record i is instance i's.
   *  Records of instances absent from that Tick follow them. */
  std::vector<PerInstance> records_;
  /** Count of tracked instances with a non-idle window (maintained on
   *  every mask transition so OthersIdle is O(1)). */
  int busy_instances_ = 0;
  /** Tick(samples)'s output (reused; steady state: no allocation). */
  std::vector<TokenGrant> grants_;
  double total_issued_ = 0.0;
};

/**
 * The Dilu sharing policy for one GPU: runs the TokenManager each
 * quantum, converts token budgets to SM-share caps
 * (tokens / kBlocksPerQuantum), grants min(demand, cap) and squeezes
 * proportionally if the device is oversubscribed — the squeeze is what
 * produces KLC inflation and closes Algorithm 2's feedback loop.
 */
class DiluArbiter : public gpusim::ShareArbiter {
 public:
  explicit DiluArbiter(double max_tokens = models::kBlocksPerQuantum);

  void Resolve(gpusim::Gpu& gpu, TimeUs now) override;
  void OnDetach(gpusim::Gpu& gpu, InstanceId id) override;

  TokenManager& manager() { return manager_; }

 private:
  TokenManager manager_;
};

}  // namespace dilu::rckm

#endif  // DILU_RCKM_TOKEN_MANAGER_H_
