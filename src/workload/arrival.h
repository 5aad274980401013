/**
 * @file
 * Request arrival processes used in the evaluation (Section 5.1):
 * Poisson (BATCH, DistServe and others), Gamma with a coefficient of
 * variation (FastServe) for the Fig 10 CV sweep, constant-rate, and
 * envelope-driven processes that replay per-second RPS series (the
 * Azure trace archetypes).
 */
#ifndef DILU_WORKLOAD_ARRIVAL_H_
#define DILU_WORKLOAD_ARRIVAL_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace dilu::workload {

/**
 * A stream of inter-arrival gaps. Implementations must be deterministic
 * given the Rng they were constructed with.
 */
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /** Gap until the next request (may be 0 for coincident arrivals). */
  virtual TimeUs NextGap() = 0;
};

/** Deterministic constant-rate arrivals. */
class ConstantArrivals : public ArrivalProcess {
 public:
  explicit ConstantArrivals(double rps);
  TimeUs NextGap() override;

 private:
  double rps_;
};

/** Poisson process at a fixed mean rate. */
class PoissonArrivals : public ArrivalProcess {
 public:
  PoissonArrivals(double rps, Rng rng);
  TimeUs NextGap() override;

 private:
  double rate_;  ///< arrivals per µs: 1 / (1e6 / rps), as Exponential
  Rng rng_;
};

/**
 * Gamma-distributed inter-arrival gaps with a coefficient of variation;
 * CV = 1 reduces to Poisson, CV > 1 is bursty (Fig 10's x-axis).
 */
class GammaArrivals : public ArrivalProcess {
 public:
  GammaArrivals(double rps, double cv, Rng rng);
  TimeUs NextGap() override;

 private:
  double rps_;
  double cv_;
  Rng rng_;
};

/**
 * Replays a per-second RPS envelope: within second k, arrivals follow a
 * Poisson process at envelope[k] (the standard trace-replay method).
 * The envelope wraps around when exhausted.
 */
class EnvelopeArrivals : public ArrivalProcess {
 public:
  EnvelopeArrivals(std::vector<double> rps_per_second, Rng rng);
  TimeUs NextGap() override;

  const std::vector<double>& envelope() const { return envelope_; }

 private:
  std::vector<double> envelope_;
  Rng rng_;
  TimeUs clock_ = 0;  ///< process-local virtual time of the last arrival
};

}  // namespace dilu::workload

#endif  // DILU_WORKLOAD_ARRIVAL_H_
