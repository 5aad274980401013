#include "sweep/sweep_report.h"

#include <cstdio>

#include "common/csv.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/stats.h"

namespace dilu::sweep {

namespace {

using experiment::ExperimentResult;
using experiment::FunctionResult;

/** One registry metric: a name and its per-run extractor. */
struct MetricDef {
  const char* name;
  double (*value)(const ExperimentResult& r);
};

double
WorstInference(const ExperimentResult& r,
               double FunctionResult::*field)
{
  double worst = 0.0;
  for (const FunctionResult& f : r.functions) {
    if (f.type != TaskType::kInference) continue;
    if (f.*field > worst) worst = f.*field;
  }
  return worst;
}

/**
 * Registry order is report order (JSON keys, CSV columns); append only
 * at the end — reordering silently reshuffles every checked-in golden.
 */
constexpr MetricDef kMetrics[] = {
    {"availability",
     [](const ExperimentResult& r) {
       return r.overall_availability_percent;
     }},
    {"svr",
     [](const ExperimentResult& r) { return r.overall_svr_percent; }},
    {"p50_ms",
     [](const ExperimentResult& r) {
       return WorstInference(r, &FunctionResult::p50_ms);
     }},
    {"p95_ms",
     [](const ExperimentResult& r) {
       return WorstInference(r, &FunctionResult::p95_ms);
     }},
    {"p99_ms",
     [](const ExperimentResult& r) {
       return WorstInference(r, &FunctionResult::p99_ms);
     }},
    {"mean_ms",
     [](const ExperimentResult& r) {
       return WorstInference(r, &FunctionResult::mean_ms);
     }},
    {"completed",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.total_completed);
     }},
    {"dropped",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.total_dropped);
     }},
    {"shed",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.total_shed);
     }},
    {"cold_starts",
     [](const ExperimentResult& r) {
       return static_cast<double>(r.total_cold_starts);
     }},
    {"ttr_s",
     [](const ExperimentResult& r) { return r.chaos.mean_ttr_s; }},
    {"max_ttr_s",
     [](const ExperimentResult& r) { return r.chaos.max_ttr_s; }},
    {"ttsr_s",
     [](const ExperimentResult& r) { return r.chaos.mean_ttsr_s; }},
    {"checkpoint_pause_s",
     [](const ExperimentResult& r) {
       double sum = 0.0;
       for (const FunctionResult& f : r.functions) {
         sum += f.checkpoint_pause_s;
       }
       return sum;
     }},
    {"restarts",
     [](const ExperimentResult& r) {
       double sum = 0.0;
       for (const FunctionResult& f : r.functions) sum += f.restarts;
       return sum;
     }},
    {"iterations",
     [](const ExperimentResult& r) {
       double sum = 0.0;
       for (const FunctionResult& f : r.functions) {
         sum += static_cast<double>(f.iterations);
       }
       return sum;
     }},
    {"avg_gpus",
     [](const ExperimentResult& r) { return r.avg_gpus; }},
    {"gpu_seconds",
     [](const ExperimentResult& r) { return r.gpu_seconds; }},
};

constexpr std::size_t kMetricCount =
    sizeof(kMetrics) / sizeof(kMetrics[0]);

/** A registry metric's per-function value (the `[fn=i]` selectors). */
struct FunctionMetricDef {
  const char* name;
  double (*value)(const FunctionResult& f);
};

constexpr FunctionMetricDef kFunctionMetrics[] = {
    {"availability",
     [](const FunctionResult& f) { return f.availability_percent; }},
    {"svr", [](const FunctionResult& f) { return f.svr_percent; }},
    {"p50_ms", [](const FunctionResult& f) { return f.p50_ms; }},
    {"p95_ms", [](const FunctionResult& f) { return f.p95_ms; }},
    {"p99_ms", [](const FunctionResult& f) { return f.p99_ms; }},
    {"mean_ms", [](const FunctionResult& f) { return f.mean_ms; }},
    {"completed",
     [](const FunctionResult& f) { return static_cast<double>(f.completed); }},
    {"dropped",
     [](const FunctionResult& f) { return static_cast<double>(f.dropped); }},
    {"shed",
     [](const FunctionResult& f) {
       return static_cast<double>(f.shed_admission + f.shed_retry);
     }},
    {"cold_starts",
     [](const FunctionResult& f) {
       return static_cast<double>(f.cold_starts);
     }},
    {"checkpoint_pause_s",
     [](const FunctionResult& f) { return f.checkpoint_pause_s; }},
    {"restarts",
     [](const FunctionResult& f) { return static_cast<double>(f.restarts); }},
    {"iterations",
     [](const FunctionResult& f) {
       return static_cast<double>(f.iterations);
     }},
};

const FunctionMetricDef*
FindFunctionMetric(const std::string& name)
{
  for (const FunctionMetricDef& m : kFunctionMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

/** "%.6f"-formatted cell for the CSV rendering. */
std::string
Fixed6(double v)
{
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/**
 * The per-axis value indices of row-major cell `index` (first axis
 * outermost) — the single source of the cell -> grid-point mapping,
 * shared by expansion (via CellValues) and aggregation.
 */
std::vector<std::size_t>
CellValueIndices(const std::vector<SweepAxis>& axes, std::size_t index)
{
  std::vector<std::size_t> out(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    out[a] = index % axes[a].values.size();
    index /= axes[a].values.size();
  }
  return out;
}

}  // namespace

const std::vector<std::string>&
SweepMetricNames()
{
  static const std::vector<std::string>* const kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const MetricDef& m : kMetrics) names->emplace_back(m.name);
    return names;
  }();
  return *kNames;
}

bool
IsSweepMetric(const std::string& name)
{
  for (const MetricDef& m : kMetrics) {
    if (name == m.name) return true;
  }
  return false;
}

bool
IsFunctionMetric(const std::string& name)
{
  return FindFunctionMetric(name) != nullptr;
}

SweepReport
AggregateSweep(const SweepSpec& sweep,
               const std::vector<ExperimentResult>& results)
{
  DILU_CHECK(results.size() == sweep.Runs());
  SweepReport rep;
  rep.sweep = sweep.name();
  rep.base = sweep.base();
  rep.seeds = sweep.seeds();
  rep.seed_base = sweep.seed_base();
  rep.axes = sweep.GridAxes();

  const std::size_t cells = sweep.Cells();
  const std::size_t reps = static_cast<std::size_t>(sweep.seeds());
  rep.cells.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    SweepCell cell;
    cell.index = c;
    const std::vector<std::size_t> vi = CellValueIndices(rep.axes, c);
    for (std::size_t a = 0; a < rep.axes.size(); ++a) {
      cell.values.push_back(rep.axes[a].values[vi[a]]);
    }
    cell.metrics.resize(kMetricCount);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      Accumulator acc;
      for (std::size_t k = 0; k < reps; ++k) {
        acc.Add(kMetrics[m].value(results[c * reps + k]));
      }
      MetricStats& s = cell.metrics[m];
      s.mean = acc.mean();
      s.stddev = acc.stddev();
      s.min = acc.min();
      s.max = acc.max();
      s.ci95 = acc.MeanCi(0.95);
    }
    rep.cells.push_back(std::move(cell));
  }

  for (const Threshold& t : sweep.thresholds()) {
    std::size_t mi = 0;
    while (mi < kMetricCount && t.metric != kMetrics[mi].name) ++mi;
    DILU_CHECK(mi < kMetricCount);  // Parse / Require validated the name
    // Per cell: the registry mean, or a selector's own per-function mean.
    std::vector<double> means(cells);
    const FunctionMetricDef* fm =
        t.fn < 0 ? nullptr : FindFunctionMetric(t.metric);
    DILU_CHECK(t.fn < 0 || fm != nullptr);
    for (std::size_t c = 0; c < cells; ++c) {
      if (fm == nullptr) {
        means[c] = rep.cells[c].metrics[mi].mean;
        continue;
      }
      Accumulator acc;
      for (std::size_t k = 0; k < reps; ++k) {
        const ExperimentResult& r = results[c * reps + k];
        DILU_CHECK(static_cast<std::size_t>(t.fn) < r.functions.size());
        acc.Add(fm->value(r.functions[static_cast<std::size_t>(t.fn)]));
      }
      means[c] = acc.mean();
    }
    ThresholdResult tr;
    tr.threshold = t;
    const double baseline = means.empty() ? 0.0 : means[0];
    tr.bound = t.relative ? t.value * baseline : t.value;
    tr.observed = baseline;
    const std::size_t first = t.relative ? 1 : 0;
    bool have_worst = false;
    for (std::size_t c = first; c < cells; ++c) {
      const double observed = means[c];
      const bool worse = !have_worst
          || (t.op == ThresholdOp::kLe ? observed > tr.observed
                                       : observed < tr.observed);
      if (worse) {
        have_worst = true;
        tr.worst_cell = c;
        tr.observed = observed;
      }
      const bool ok = t.op == ThresholdOp::kLe ? observed <= tr.bound
                                               : observed >= tr.bound;
      if (!ok) tr.pass = false;
    }
    if (!tr.pass) rep.pass = false;
    rep.thresholds.push_back(tr);
  }
  return rep;
}

std::string
SweepReport::ToJson() const
{
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"dilu-sweep/1\",\n";
  out += "  \"sweep\": \"" + EscapeJson(sweep) + "\",\n";
  out += "  \"base\": \"" + EscapeJson(base) + "\",\n";
  AppendJson(&out, "  \"seeds\": %d,\n", seeds);
  AppendJson(&out, "  \"seed_base\": %llu,\n",
             static_cast<unsigned long long>(seed_base));
  out += "  \"axes\": [\n";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    out += "    {\"path\": \"" + EscapeJson(axes[a].path)
        + "\", \"values\": [";
    for (std::size_t v = 0; v < axes[a].values.size(); ++v) {
      if (v > 0) out += ", ";
      out += "\"" + EscapeJson(axes[a].values[v]) + "\"";
    }
    out += "]}";
    out += a + 1 < axes.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  const std::vector<std::string>& names = SweepMetricNames();
  out += "  \"cells\": [\n";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const SweepCell& cell = cells[c];
    AppendJson(&out, "    {\"cell\": %zu, \"point\": {", cell.index);
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (a > 0) out += ", ";
      out += "\"" + EscapeJson(axes[a].path) + "\": \""
          + EscapeJson(cell.values[a]) + "\"";
    }
    out += "}, \"metrics\": {\n";
    for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
      const MetricStats& s = cell.metrics[m];
      out += "      \"" + names[m] + "\": ";
      AppendJson(&out,
                 "{\"mean\": %.6f, \"stddev\": %.6f, \"min\": %.6f, "
                 "\"max\": %.6f, \"ci95\": %.6f}",
                 s.mean, s.stddev, s.min, s.max, s.ci95);
      out += m + 1 < cell.metrics.size() ? ",\n" : "\n";
    }
    out += "    }}";
    out += c + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"thresholds\": [\n";
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const ThresholdResult& tr = thresholds[t];
    out += "    {\"require\": \"" + EscapeJson(tr.threshold.Subject())
        + "\", \"op\": \""
        + (tr.threshold.op == ThresholdOp::kLe ? "<=" : ">=") + "\", ";
    AppendJson(&out,
               "\"value\": %.6f, \"relative\": %s, \"bound\": %.6f, "
               "\"worst_cell\": %zu, \"observed\": %.6f, \"pass\": %s}",
               tr.threshold.value,
               tr.threshold.relative ? "true" : "false", tr.bound,
               tr.worst_cell, tr.observed, tr.pass ? "true" : "false");
    out += t + 1 < thresholds.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  AppendJson(&out, "  \"pass\": %s\n", pass ? "true" : "false");
  out += "}\n";
  return out;
}

std::string
SweepReport::CellsCsv() const
{
  std::vector<std::string> columns;
  columns.emplace_back("cell");
  for (const SweepAxis& a : axes) columns.push_back(a.path);
  columns.emplace_back("runs");
  for (const std::string& name : SweepMetricNames()) {
    columns.push_back(name + "_mean");
    columns.push_back(name + "_stddev");
    columns.push_back(name + "_min");
    columns.push_back(name + "_max");
    columns.push_back(name + "_ci95");
  }
  CsvWriter csv(std::move(columns));
  for (const SweepCell& cell : cells) {
    std::vector<std::string> row;
    row.push_back(std::to_string(cell.index));
    for (const std::string& v : cell.values) row.push_back(v);
    row.push_back(std::to_string(seeds));
    for (const MetricStats& s : cell.metrics) {
      row.push_back(Fixed6(s.mean));
      row.push_back(Fixed6(s.stddev));
      row.push_back(Fixed6(s.min));
      row.push_back(Fixed6(s.max));
      row.push_back(Fixed6(s.ci95));
    }
    csv.AddTextRow(row);
  }
  return csv.ToString();
}

}  // namespace dilu::sweep
