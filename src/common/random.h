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

#include <cmath>
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
   * 1/mean). Used for Poisson inter-arrival gaps, so it is drawn
   * in-tree and inline: the same arithmetic as libstdc++'s
   * std::exponential_distribution (u = one 64-bit draw times 2^-64,
   * clamped below 1, then -log(1 - u) / rate), bit for bit, without
   * the standard library's implementation-defined choice.
   */
  double Exponential(double mean)
  {
    if (mean <= 0.0) return 0.0;
    return ExponentialRate(1.0 / mean);
  }

  /**
   * Exponential(mean) for a caller that keeps the rate 1.0 / mean:
   * the same bits, without the division per draw.
   */
  double ExponentialRate(double rate)
  {
    // double(x) for a 64-bit x, rounded once in the final add, as the
    // direct conversion rounds; split in halves so it compiles without
    // the direct conversion's branch on the sign bit.
    const std::uint64_t x = engine_();
    double u = (static_cast<double>(static_cast<std::uint32_t>(x >> 32))
                    * 0x1p32
                + static_cast<double>(static_cast<std::uint32_t>(x)))
        * 0x1p-64;
    if (u >= 1.0) u = 0x1.fffffffffffffp-1;  // nextafter(1, 0)
    return -std::log(1.0 - u) / rate;
  }

  /**
   * Gamma-distributed inter-arrival gap parameterized like FastServe's
   * workload: mean gap `mean` and coefficient of variation `cv`.
   * CV -> 0 degenerates to a constant gap; CV = 1 is exponential;
   * CV > 1 is bursty.
   */
  double GammaInterarrival(double mean, double cv);

  /** Normally distributed value; stddev 0 returns `mean`. */
  double Normal(double mean, double stddev);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dilu

#endif  // DILU_COMMON_RANDOM_H_
