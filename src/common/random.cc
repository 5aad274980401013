#include "common/random.h"

#include <algorithm>
#include <cmath>

namespace dilu {

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

double
Rng::Uniform()
{
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double
Rng::Uniform(double lo, double hi)
{
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t
Rng::UniformInt(std::int64_t lo, std::int64_t hi)
{
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double
Rng::GammaInterarrival(double mean, double cv)
{
  if (mean <= 0.0) return 0.0;
  // A gamma distribution with shape k and scale theta has mean k*theta
  // and CV 1/sqrt(k). Solving for the requested CV:
  if (cv <= 1e-6) return mean;  // effectively deterministic
  const double shape = 1.0 / (cv * cv);
  const double scale = mean / shape;
  return std::gamma_distribution<double>(shape, scale)(engine_);
}

double
Rng::Normal(double mean, double stddev)
{
  // A standard normal scaled by hand: libstdc++ returns the same
  // `ret * stddev + mean` bit for bit, but its (mean, stddev)
  // constructor requires stddev > 0, and a stddev of 0 (a zero-length
  // burst) must simply return the mean.
  return std::normal_distribution<double>()(engine_) * stddev + mean;
}

}  // namespace dilu
