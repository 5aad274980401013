/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component (arrival processes, trace generators, jitter)
 * draws from an explicitly seeded Rng so that simulations — and therefore
 * every reproduced table and figure — are bit-for-bit repeatable.
 */
#ifndef DILU_COMMON_RANDOM_H_
#define DILU_COMMON_RANDOM_H_

#include <cstdint>
#include <random>

namespace dilu {

/** Seeded pseudo-random source wrapping std::mt19937_64. */
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x44494C55 /* "DILU" */);

  /** Uniform double in [0, 1). */
  double Uniform();

  /** Uniform double in [lo, hi). */
  double Uniform(double lo, double hi);

  /** Uniform integer in [lo, hi] inclusive. */
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /**
   * Exponentially distributed value with the given mean (i.e. rate
   * 1/mean). Used for Poisson inter-arrival gaps.
   */
  double Exponential(double mean);

  /**
   * Gamma-distributed inter-arrival gap parameterized like FastServe's
   * workload: mean gap `mean` and coefficient of variation `cv`.
   * CV -> 0 degenerates to a constant gap; CV = 1 is exponential;
   * CV > 1 is bursty.
   */
  double GammaInterarrival(double mean, double cv);

  /** Normally distributed value. */
  double Normal(double mean, double stddev);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dilu

#endif  // DILU_COMMON_RANDOM_H_
