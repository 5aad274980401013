/**
 * @file
 * Sweep execution: expand a SweepSpec against its base experiment into
 * a run matrix and execute it on a worker pool.
 *
 * Expansion is where axis values meet the base spec: each grid cell
 * copies the base, applies every axis value through ApplyParam (so a
 * cell can never be a spec the loader would have rejected), clears the
 * trace-export prefix (a thousand runs must not write a thousand trace
 * trees) and fans out into `seeds` repetitions under seeds
 * `seed_base + k`. A `variant` cell applies each of its settings the
 * same way. The pseudo-path `run.shards` is intercepted here — it sets
 * the cell's shard count instead of mutating the spec.
 *
 * Execution runs one experiment per task of the work pool
 * (common/work_pool.h) and stores each result into its run's own slot;
 * which thread runs which cell is a race, the report never is —
 * aggregation reads the slots in matrix order after every task
 * finished, so the output is byte-identical at any thread count.
 */
#ifndef DILU_SWEEP_SWEEP_RUNNER_H_
#define DILU_SWEEP_SWEEP_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "sweep/sweep_report.h"
#include "sweep/sweep_spec.h"

namespace dilu::sweep {

/** One fully resolved run of the matrix. */
struct SweepRun {
  std::size_t index = 0;  ///< position in the matrix (storage slot)
  std::size_t cell = 0;   ///< row-major grid cell
  int rep = 0;            ///< seed repetition within the cell
  std::uint64_t seed = 0;            ///< seed_base + rep
  std::vector<std::string> values;   ///< one per grid axis, sweep order
  int shards = 1;  ///< ShardOptions::shards of the run
  experiment::ExperimentSpec spec;   ///< base + axis values applied
};

/** The expanded matrix: every run, cell-major, repetitions innermost. */
struct SweepMatrix {
  std::vector<SweepAxis> axes;
  std::size_t cells = 1;
  int seeds = 1;
  std::vector<SweepRun> runs;
};

/** Runs above this expand to an error, not an accidental fleet. */
inline constexpr std::size_t kMaxSweepRuns = 1000000;

/**
 * Expand `sweep` against its (already loaded) base experiment. On
 * failure — an axis or variant value the parameter path rejects, a bad
 * `run.shards` value or one that would partition a pinned base, a
 * `[fn=i]` selector past the base's deploys, an oversized matrix —
 * returns false with a message naming the offending line in `*error`
 * (when non-null); `*out` is only written on success.
 */
bool ExpandSweep(const SweepSpec& sweep,
                 const experiment::ExperimentSpec& base, SweepMatrix* out,
                 std::string* error);

/**
 * Execute every run of the matrix on `threads` workers (clamped to
 * [1, runs]) and return the results in matrix order. Deterministic:
 * the result vector is byte-for-byte independent of `threads`.
 */
std::vector<experiment::ExperimentResult> ExecuteSweep(
    const SweepMatrix& matrix, int threads);

/**
 * Convenience pipeline: ExpandSweep + ExecuteSweep + AggregateSweep.
 * On failure returns false with `*error` set; `*out` is only written
 * on success.
 */
bool RunSweep(const SweepSpec& sweep,
              const experiment::ExperimentSpec& base, int threads,
              SweepReport* out, std::string* error);

}  // namespace dilu::sweep

#endif  // DILU_SWEEP_SWEEP_RUNNER_H_
