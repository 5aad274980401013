// Fixture: std distributions whose output is implementation-defined.
#include <random>

using std::normal_distribution;

double Fixture(std::mt19937_64& engine)
{
  std::uniform_int_distribution<int> pick(0, 9);  // line 8
  normal_distribution<double> noise(0.0, 1.0);    // line 9
  double sum = pick(engine) + noise(engine);
  sum += std::gamma_distribution<double>(2.0, 1.0)(engine);  // line 11
  // Near misses: a user type and an identifier that only contains one.
  struct my_distribution {};
  const int normal_distribution_count = 0;
  return sum + normal_distribution_count;
}
