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
  for (const Threshold& t : sweep.thresholds()) {
    if (t.fn >= 0
        && static_cast<std::size_t>(t.fn) >= base.deploys().size()) {
      return FailExpand(error, "require " + t.Subject() + ": the base has "
                        + std::to_string(base.deploys().size())
                        + " deploys");
    }
  }
  // Guard the product before materializing it: a typo'd axis must be
  // an error message, not a million-run fleet.
  const std::vector<SweepAxis> grid = sweep.GridAxes();
  std::size_t cells = 1;
  for (const SweepAxis& a : grid) {
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
  matrix.axes = grid;
  matrix.cells = cells;
  matrix.seeds = sweep.seeds();
  matrix.runs.reserve(cells * reps);
  const bool variants = !sweep.variants().empty();
  for (std::size_t c = 0; c < cells; ++c) {
    experiment::ExperimentSpec spec = base;
    // Sweep runs are measurement fan-out, not trace producers.
    spec.ExportTo("");
    int shards = 1;
    // Set one knob; `where` names its line in the sweep for errors.
    const auto set = [&](const std::string& path, const std::string& value,
                         const std::string& where) {
      if (path == "run.shards") {
        std::int32_t n = 0;
        if (!spec_text::ParseInt(value, &n) || n < 1) {
          return FailExpand(error, where + ": wants an int >= 1");
        }
        shards = n;
        return true;
      }
      std::string apply_error;
      if (!experiment::ApplyParam(&spec, path, value, &apply_error)) {
        return FailExpand(error, where + ": " + apply_error);
      }
      return true;
    };
    // Row-major decomposition: first axis (the variants) outermost.
    std::vector<std::size_t> at(grid.size());
    std::size_t rem = c;
    for (std::size_t a = grid.size(); a-- > 0;) {
      at[a] = rem % grid[a].values.size();
      rem /= grid[a].values.size();
    }
    std::vector<std::string> values;
    for (std::size_t a = 0; a < grid.size(); ++a) {
      const std::string& value = grid[a].values[at[a]];
      values.push_back(value);
      if (variants && a == 0) {
        const SweepVariant& v = sweep.variants()[at[a]];
        for (const auto& [path, setting] : v.params) {
          if (!set(path, setting,
                   "variant '" + v.name + "' " + path + "=" + setting)) {
            return false;
          }
        }
      } else if (!set(grid[a].path, value,
                      "axis '" + grid[a].path + "' value '" + value
                          + "'")) {
        return false;
      }
    }
    if (shards > 1 && spec.pinned()) {
      return FailExpand(error, "cell " + std::to_string(c) + ": run.shards="
                        + std::to_string(shards)
                        + " cannot partition a base whose deploys pin "
                          "GPUs (on=)");
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
