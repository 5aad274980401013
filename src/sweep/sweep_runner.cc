#include "sweep/sweep_runner.h"

#include <utility>

#include "common/spec_text.h"
#include "common/work_pool.h"
#include "experiment/spec_params.h"

namespace dilu::sweep {

namespace {

bool
FailExpand(std::string* error, const std::string& msg)
{
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool
ExpandSweep(const SweepSpec& sweep,
            const experiment::ExperimentSpec& base, SweepMatrix* out,
            std::string* error)
{
  // Guard the product before materializing it: a typo'd axis must be
  // an error message, not a million-run fleet.
  std::size_t cells = 1;
  for (const SweepAxis& a : sweep.axes()) {
    if (a.values.empty()) {
      return FailExpand(error, "axis '" + a.path + "' has no values");
    }
    if (cells > kMaxSweepRuns / a.values.size()) {
      return FailExpand(error, "sweep expands past the "
                        + std::to_string(kMaxSweepRuns) + "-run cap");
    }
    cells *= a.values.size();
  }
  const std::size_t reps = static_cast<std::size_t>(sweep.seeds());
  if (cells > kMaxSweepRuns / reps) {
    return FailExpand(error, "sweep expands past the "
                      + std::to_string(kMaxSweepRuns) + "-run cap");
  }

  SweepMatrix matrix;
  matrix.axes = sweep.axes();
  matrix.cells = cells;
  matrix.seeds = sweep.seeds();
  matrix.runs.reserve(cells * reps);
  for (std::size_t c = 0; c < cells; ++c) {
    experiment::ExperimentSpec spec = base;
    // Sweep runs are measurement fan-out, not trace producers.
    spec.ExportTo("");
    std::vector<std::string> values;
    int shards = 1;
    // Row-major decomposition: first axis outermost.
    std::size_t rem = c;
    for (std::size_t a = matrix.axes.size(); a-- > 0;) {
      const SweepAxis& axis = matrix.axes[a];
      values.insert(values.begin(),
                    axis.values[rem % axis.values.size()]);
      rem /= axis.values.size();
    }
    for (std::size_t a = 0; a < matrix.axes.size(); ++a) {
      const SweepAxis& axis = matrix.axes[a];
      const std::string& value = values[a];
      if (axis.path == "run.shards") {
        std::int32_t n = 0;
        if (!spec_text::ParseInt(value, &n) || n < 1) {
          return FailExpand(error,
                            "axis 'run.shards' value '" + value
                                + "': wants an int >= 1");
        }
        shards = n;
        continue;
      }
      std::string apply_error;
      if (!experiment::ApplyParam(&spec, axis.path, value,
                                  &apply_error)) {
        return FailExpand(error, "axis '" + axis.path + "' value '"
                          + value + "': " + apply_error);
      }
    }
    for (std::size_t k = 0; k < reps; ++k) {
      SweepRun run;
      run.index = c * reps + k;
      run.cell = c;
      run.rep = static_cast<int>(k);
      run.seed = sweep.seed_base() + k;
      run.values = values;
      run.shards = shards;
      run.spec = spec;
      matrix.runs.push_back(std::move(run));
    }
  }
  *out = std::move(matrix);
  return true;
}

std::vector<experiment::ExperimentResult>
ExecuteSweep(const SweepMatrix& matrix, int threads)
{
  // Each result lands in its run's pre-sized slot (no two tasks share
  // one) and is read only after the pool returned: determinism lives
  // in the slot order, not the schedule.
  std::vector<experiment::ExperimentResult> results(matrix.runs.size());
  ParallelFor(matrix.runs.size(), threads, [&](std::size_t i) {
    const SweepRun& run = matrix.runs[i];
    experiment::RunOptions opts;
    opts.seed = run.seed;
    // One pool task per run already saturates the pool, so a sharded
    // cell runs its shards inline rather than nesting a second pool.
    experiment::Experiment exp(run.spec, opts,
                               experiment::ShardOptions{run.shards, 1});
    results[i] = exp.Run();
  });
  return results;
}

bool
RunSweep(const SweepSpec& sweep, const experiment::ExperimentSpec& base,
         int threads, SweepReport* out, std::string* error)
{
  SweepMatrix matrix;
  if (!ExpandSweep(sweep, base, &matrix, error)) return false;
  const std::vector<experiment::ExperimentResult> results =
      ExecuteSweep(matrix, threads);
  *out = AggregateSweep(sweep, results);
  return true;
}

}  // namespace dilu::sweep
