/**
 * @file
 * Shared by the benches: the arrival-stream seed. The paper figures
 * that a spec can express are sweeps under experiments/paper/
 * (docs/EXPERIMENTS.md), Table 2's search counts are profiler_test
 * assertions, and the benches print what a spec cannot: Fig 17 and
 * Fig 18(a)'s placement-only passes, Fig 2's toys, Fig 4's profiler
 * surfaces, Fig 12's series and Figs 13/14's kernel traces. The
 * simulator's own speed is measured by perfbench (PERFORMANCE.md).
 */
#ifndef DILU_BENCH_BENCH_UTIL_H_
#define DILU_BENCH_BENCH_UTIL_H_

#include <cstdint>

namespace dilu::bench {

/**
 * Arrival-stream seeds: the k-th stream a bench attaches to one
 * cluster draws from Rng(kStreamSeed + k), the seeds every figure's
 * recorded output was produced under (the experiments/paper/ specs
 * name them as `seed=5763085 + k`).
 */
constexpr std::uint64_t kStreamSeed = 0x57F00D;

}  // namespace dilu::bench

#endif  // DILU_BENCH_BENCH_UTIL_H_
