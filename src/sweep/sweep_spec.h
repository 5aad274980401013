/**
 * @file
 * Declarative parameter sweeps: one spec, a matrix of runs.
 *
 * A SweepSpec names a base experiment (an `.exp` gallery file), a seed
 * repetition count and a grid of axes — parameter paths into the base
 * spec (see experiment/spec_params.h) with the values each should take
 * — plus `require` threshold clauses that turn the aggregated report
 * into a pass/fail verdict. Like the chaos and experiment specs it is
 * pure data with two faces, a fluent C++ builder and a line-oriented
 * text format that round-trips byte-identically, so whole ablation
 * studies are diffable files under experiments/sweeps/ (the
 * `dilu_sweep` CLI executes them; docs/SWEEP.md has the grammar).
 *
 * Named `variant` cells set several knobs at once; together they form
 * the outermost pseudo-axis `variant`, so cell 0 is the first variant.
 *
 * Determinism: a sweep carries no randomness. The run matrix expands
 * in a fixed row-major order (first axis outermost, seed repetitions
 * innermost) and repetition k of every cell runs under the same seed
 * `seed_base + k`, so cells are seed-paired and the same sweep file
 * replays bit-for-bit at any worker-thread count.
 */
#ifndef DILU_SWEEP_SWEEP_SPEC_H_
#define DILU_SWEEP_SWEEP_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dilu::sweep {

/** One grid dimension: a parameter path and its candidate values. */
struct SweepAxis {
  /**
   * ApplyParam path into the base spec (`cluster.recovery`,
   * `workload[0].rps`, `chaos.intensity`, ...) or the runner-owned
   * pseudo-path `run.shards` (executes the cell partitioned into that
   * many shards).
   */
  std::string path;
  /** Spec-format value tokens, in sweep order; first = baseline. */
  std::vector<std::string> values;
};

/**
 * One `variant` line: a named cell that applies every (path, value)
 * pair, in order, through ApplyParam (or the runner's `run.shards`).
 */
struct SweepVariant {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

/** Direction of a `require` clause. */
enum class ThresholdOp {
  kLe,  ///< metric must stay <= the bound
  kGe,  ///< metric must stay >= the bound
};

/** One `require` clause: a bound on a report metric's per-cell mean. */
struct Threshold {
  /** Report metric name (see sweep_report.h's registry). */
  std::string metric;
  ThresholdOp op = ThresholdOp::kLe;
  /** Absolute bound — or, when `relative`, a factor on the baseline. */
  double value = 0.0;
  /**
   * `<value>x baseline`: the bound is value * the metric's mean in the
   * baseline cell (cell 0 — every axis at its first value). Relative
   * clauses skip the baseline cell itself, which would otherwise be
   * compared against its own scaled mean, so a one-cell sweep rejects
   * them.
   */
  bool relative = false;
  /**
   * `<metric>[fn=i]`: the metric of the base's i-th deploy (its
   * FunctionResult) instead of the fleet-wide registry value; -1 = none.
   */
  int fn = -1;

  /** The clause's metric as written: `p95_ms` or `p95_ms[fn=1]`. */
  std::string Subject() const;
};

/** A named, declarative parameter-sweep description. */
class SweepSpec {
 public:
  SweepSpec() = default;
  explicit SweepSpec(std::string name) : name_(std::move(name)) {}

  // --- fluent builder --------------------------------------------------
  /** Name of the base experiment (gallery stem or `.exp` path). */
  SweepSpec& Base(std::string base);

  /**
   * Repetitions per cell; repetition k runs under seed
   * `seed_base + k`, identical across cells (paired comparisons).
   * `seed_base` must be >= 1 — seed 0 means "no override" to the
   * experiment driver, which would silently fall back to the base
   * spec's own seed.
   */
  SweepSpec& Seeds(int n, std::uint64_t seed_base = 1);

  /** Append a grid axis. */
  SweepSpec& Axis(std::string path, std::vector<std::string> values);

  /** Append a named cell of the `variant` pseudo-axis. */
  SweepSpec& Variant(
      std::string name,
      std::vector<std::pair<std::string, std::string>> params);

  /** Append a `require` clause (`fn` >= 0: a per-function selector). */
  SweepSpec& Require(std::string metric, ThresholdOp op, double value,
                     bool relative = false, int fn = -1);

  // --- accessors -------------------------------------------------------
  const std::string& name() const { return name_; }
  const std::string& base() const { return base_; }
  int seeds() const { return seeds_; }
  std::uint64_t seed_base() const { return seed_base_; }
  const std::vector<SweepAxis>& axes() const { return axes_; }
  const std::vector<SweepVariant>& variants() const { return variants_; }
  const std::vector<Threshold>& thresholds() const { return thresholds_; }

  /**
   * The grid's dimensions, outermost first: the `variant` pseudo-axis
   * (the variant names) when there are variants, then axes().
   */
  std::vector<SweepAxis> GridAxes() const;

  /** Grid size: product of GridAxes() value counts (1 with none). */
  std::size_t Cells() const;

  /** Total runs: Cells() * seeds. */
  std::size_t Runs() const { return Cells() * static_cast<std::size_t>(seeds_); }

  /**
   * Serialize to the sweep text format (canonical: sweep / base /
   * seeds / variant, axis and require lines, each in declaration
   * order). ToText/Parse round-trip byte-identically.
   */
  std::string ToText() const;

  /**
   * Parse the text format (blank lines and `#` comments — whole-line
   * or trailing — are skipped):
   *
   *   sweep <name>
   *   base <experiment>
   *   seeds <N> [base=<B>]
   *   variant <name> <path>=<value> [<path>=<value> ...]
   *   axis <path> <value> [<value> ...]
   *   require <metric>[[fn=<i>]] <=|>= <value>[x baseline]
   *
   * A relative clause on a one-cell sweep is rejected: it would have
   * no cell to check. On failure returns false and leaves a
   * line-numbered message in `*error` (when non-null); `*out` is only
   * written on success.
   */
  static bool Parse(const std::string& text, SweepSpec* out,
                    std::string* error);

 private:
  std::string name_;
  std::string base_;
  int seeds_ = 1;
  std::uint64_t seed_base_ = 1;
  std::vector<SweepAxis> axes_;
  std::vector<SweepVariant> variants_;
  std::vector<Threshold> thresholds_;
};

/**
 * Path of a sweep's base experiment: a `base` that names a path (holds
 * a '/' or ends in `.exp`) passes through verbatim; a gallery stem
 * resolves to `<exp_dir>/<base>.exp`.
 */
std::string ResolveBase(const std::string& base, const std::string& exp_dir);

}  // namespace dilu::sweep

#endif  // DILU_SWEEP_SWEEP_SPEC_H_
