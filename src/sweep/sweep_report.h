/**
 * @file
 * Sweep aggregation: per-run ExperimentResults folded into a per-cell
 * statistical report with a CI-gateable pass/fail verdict.
 *
 * Each cell's seed repetitions fold into mean / stddev / min / max and
 * a Student-t 95% confidence half-width per registry metric (the
 * Accumulator::Merge / MeanCi machinery in common/stats.h). `require`
 * clauses from the sweep spec then bound each cell's mean — absolute
 * bounds apply to every cell, `<factor>x baseline` bounds resolve
 * against cell 0's mean, and a `[fn=i]` selector reads deploy i's
 * own value instead of the fleet-wide one — and the report carries
 * the worst cell per clause plus an overall verdict, which the
 * `dilu_sweep` CLI turns into its exit code (the CI sweep-gate job's
 * regression tripwire).
 *
 * Determinism: the JSON (schema dilu-sweep/1) and CSV renderings use
 * fixed key order and fixed-precision formatting and contain no
 * wall-clock or machine fields, so the same sweep replays
 * byte-identically at any worker-thread count.
 */
#ifndef DILU_SWEEP_SWEEP_REPORT_H_
#define DILU_SWEEP_SWEEP_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "sweep/sweep_spec.h"

namespace dilu::sweep {

// --- metric registry ---------------------------------------------------

/**
 * The report metric names, in report order. Latency metrics are the
 * worst (max) over the inference functions of a run — a sweep verdict
 * should not let one function's regression hide behind another's
 * headroom — and count metrics sum over functions.
 */
const std::vector<std::string>& SweepMetricNames();

/** True when `name` is a registry metric (`require` validates this). */
bool IsSweepMetric(const std::string& name);

/**
 * True when registry metric `name` also has a per-function value, so a
 * `require <name>[fn=i]` selector may name it.
 */
bool IsFunctionMetric(const std::string& name);

// --- aggregated report -------------------------------------------------

/** Five-number summary of one metric over one cell's repetitions. */
struct MetricStats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double ci95 = 0.0;  ///< Student-t 95% half-width of the mean
};

/** One grid cell's aggregated outcome. */
struct SweepCell {
  std::size_t index = 0;             ///< row-major cell index
  std::vector<std::string> values;   ///< one per axis, sweep order
  std::vector<MetricStats> metrics;  ///< parallel to SweepMetricNames()
};

/** One `require` clause's evaluation. */
struct ThresholdResult {
  Threshold threshold;
  bool pass = true;
  /** Cell with the least margin (0 when no cell was applicable). */
  std::size_t worst_cell = 0;
  double observed = 0.0;  ///< worst cell's mean
  double bound = 0.0;     ///< resolved absolute bound
};

/** The aggregated outcome of a whole sweep. */
struct SweepReport {
  std::string sweep;
  std::string base;
  int seeds = 1;
  std::uint64_t seed_base = 1;
  std::vector<SweepAxis> axes;
  std::vector<SweepCell> cells;     ///< row-major order
  std::vector<ThresholdResult> thresholds;
  bool pass = true;  ///< every threshold passed

  /**
   * Deterministic JSON rendering (schema dilu-sweep/1): fixed key
   * order and %.6f stats formatting, no wall-clock or machine fields.
   */
  std::string ToJson() const;

  /**
   * The per-cell table as CSV: cell, one column per axis path, runs,
   * then <metric>_{mean,stddev,min,max,ci95} per registry metric.
   */
  std::string CellsCsv() const;
};

/**
 * Fold the matrix's results (in run-matrix order: cell-major, seed
 * repetitions innermost — what ExecuteSweep returns) into the report.
 * `results.size()` must equal `sweep.Runs()`, and every `[fn=i]`
 * selector must name a function of the results (ExpandSweep checks).
 */
SweepReport AggregateSweep(
    const SweepSpec& sweep,
    const std::vector<experiment::ExperimentResult>& results);

}  // namespace dilu::sweep

#endif  // DILU_SWEEP_SWEEP_REPORT_H_
