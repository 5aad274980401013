/**
 * @file
 * dilu_sweep: expand a declarative sweep spec into its run matrix,
 * execute it on a worker pool and emit the aggregated report.
 *
 *   dilu_sweep <spec.sweep> [--threads N] [--out FILE]
 *              [--exp-dir DIR] [--print]
 *   dilu_sweep --list [DIR]
 *   dilu_sweep --metrics
 *
 *  --threads N    worker threads for the run matrix (default 1; a
 *                 whole positive number, anything else is a usage
 *                 error)
 *  --out FILE     write the JSON report (dilu-sweep/1) to FILE instead
 *                 of stdout, plus the per-cell table next to it as
 *                 <FILE minus .json>_cells.csv
 *  --exp-dir DIR  directory that resolves the spec's `base` name
 *                 (default experiments/; a base containing '/' or
 *                 ending in .exp is used as a path verbatim)
 *  --print        print the canonical sweep text and exit (lint /
 *                 round-trip check; no simulation)
 *  --list [DIR]   list the `.sweep` gallery under DIR (default
 *                 experiments/sweeps/) and exit
 *  --metrics      list the report metric registry (`[fn=i]` marks
 *                 the ones a per-function selector may name) and exit
 *
 * Exit code: 0 = every `require` clause passed, 1 = a threshold was
 * violated (or an output file could not be written), 2 = usage / parse
 * / expansion error. Two runs of the same sweep emit byte-identical
 * JSON and CSV at any --threads value (the CI sweep-gate job diffs
 * exactly that); see docs/SWEEP.md for the grammar and semantics.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/spec_text.h"
#include "experiment/experiment_spec.h"
#include "experiment/gallery.h"
#include "sweep/sweep_runner.h"

namespace {

using namespace dilu;

int
Usage(const char* argv0)
{
  std::fprintf(stderr,
               "usage: %s <spec.sweep> [--threads N] [--out FILE] "
               "[--exp-dir DIR] [--print]\n"
               "       %s --list [DIR]\n"
               "       %s --metrics\n",
               argv0, argv0, argv0);
  return 2;
}

int
ListGalleryDir(const std::string& dir)
{
  const std::vector<experiment::GalleryEntry> entries =
      experiment::ListGallery(dir, ".sweep");
  if (entries.empty()) {
    std::fprintf(stderr, "no .sweep specs under %s\n", dir.c_str());
    return 1;
  }
  std::fprintf(stdout, "sweeps under %s:\n%s", dir.c_str(),
               experiment::FormatGallery(entries).c_str());
  return 0;
}

bool
ReadFile(const std::string& path, std::string* out)
{
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

bool
WriteFile(const std::string& path, const std::string& content)
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  const bool written = std::fputs(content.c_str(), f) != EOF;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int
main(int argc, char** argv)
{
  const char* spec_path = nullptr;
  const char* out_path = nullptr;
  std::string exp_dir = "experiments";
  int threads = 1;
  bool print_only = false;
  if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
    if (argc > 3) return Usage(argv[0]);
    return ListGalleryDir(argc == 3 ? argv[2] : "experiments/sweeps");
  }
  if (argc >= 2 && std::strcmp(argv[1], "--metrics") == 0) {
    if (argc > 2) return Usage(argv[0]);
    for (const std::string& name : sweep::SweepMetricNames()) {
      std::fprintf(stdout, "%s%s\n", name.c_str(),
                   sweep::IsFunctionMetric(name) ? " [fn=i]" : "");
    }
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      std::int32_t n = 0;
      if (!spec_text::ParseInt(argv[++i], &n) || n < 1) {
        return Usage(argv[0]);
      }
      threads = n;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--exp-dir") == 0 && i + 1 < argc) {
      exp_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--print") == 0) {
      print_only = true;
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (spec_path == nullptr) {
      spec_path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (spec_path == nullptr) return Usage(argv[0]);

  std::string text;
  if (!ReadFile(spec_path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", spec_path);
    return 2;
  }
  sweep::SweepSpec spec;
  std::string error;
  if (!sweep::SweepSpec::Parse(text, &spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", spec_path, error.c_str());
    return 2;
  }
  if (print_only) {
    std::fputs(spec.ToText().c_str(), stdout);
    return 0;
  }

  const std::string base_path = sweep::ResolveBase(spec.base(), exp_dir);
  std::string base_text;
  if (!ReadFile(base_path, &base_text)) {
    std::fprintf(stderr, "%s: cannot read base experiment %s\n",
                 spec_path, base_path.c_str());
    return 2;
  }
  experiment::ExperimentSpec base;
  if (!experiment::ExperimentSpec::Parse(base_text, &base, &error)) {
    std::fprintf(stderr, "%s: %s\n", base_path.c_str(), error.c_str());
    return 2;
  }

  std::fprintf(stderr,
               "sweep '%s': base '%s', %zu cells x %d seeds = %zu runs "
               "on %d threads\n",
               spec.name().c_str(), spec.base().c_str(), spec.Cells(),
               spec.seeds(), spec.Runs(), threads);
  sweep::SweepReport report;
  if (!sweep::RunSweep(spec, base, threads, &report, &error)) {
    std::fprintf(stderr, "%s: %s\n", spec_path, error.c_str());
    return 2;
  }
  for (const sweep::ThresholdResult& tr : report.thresholds) {
    std::fprintf(stderr, "require %s %s %g%s: %s (worst cell %zu: "
                 "%.6f vs bound %.6f)\n",
                 tr.threshold.Subject().c_str(),
                 tr.threshold.op == sweep::ThresholdOp::kLe ? "<=" : ">=",
                 tr.threshold.value,
                 tr.threshold.relative ? "x baseline" : "",
                 tr.pass ? "PASS" : "FAIL", tr.worst_cell, tr.observed,
                 tr.bound);
  }

  const std::string json = report.ToJson();
  if (out_path != nullptr) {
    std::string stem = out_path;
    if (stem.size() > 5
        && stem.compare(stem.size() - 5, 5, ".json") == 0) {
      stem.resize(stem.size() - 5);
    }
    if (!WriteFile(out_path, json)) return 1;
    if (!WriteFile(stem + "_cells.csv", report.CellsCsv())) return 1;
  } else {
    std::fputs(json.c_str(), stdout);
  }
  if (!report.pass) {
    std::fprintf(stderr, "sweep '%s': FAIL\n", report.sweep.c_str());
    return 1;
  }
  std::fprintf(stderr, "sweep '%s': PASS\n", report.sweep.c_str());
  return 0;
}
