/**
 * @file
 * dilu_run: execute a declarative experiment spec.
 *
 *   dilu_run <spec.exp> [--seed N] [--out FILE] [--export PREFIX]
 *            [--shards N] [--threads N] [--print]
 *   dilu_run --list [DIR]
 *
 *  --seed N         override the spec's cluster seed (all derived
 *                   workload / chaos streams re-key from it)
 *  --out FILE       write the JSON result (dilu-experiment/1) to FILE
 *                   instead of stdout
 *  --export PREFIX  write the trace CSVs under PREFIX (overrides the
 *                   spec's `export` line; sharded runs append _s<k>)
 *  --shards N       partition the fleet into N independent shards
 *                   (default 1 = the whole fleet; see
 *                   docs/PARALLELISM.md); a spec that pins GPUs
 *                   (deploy on=) runs on one shard only
 *  --threads N      worker threads running the shards (default 1)
 *  --print          print the canonical spec text and exit (lint /
 *                   round-trip check; no simulation)
 *  --list [DIR]     list the `.exp` gallery under DIR (default
 *                   experiments/) with each file's one-line
 *                   description, and exit
 *
 * Two runs of the same spec + seed emit byte-identical JSON (the CI
 * experiment-smoke job diffs exactly that), at any --threads value.
 * Numeric flags must be whole numbers (--seed 12x is a usage error).
 * Usage and parse errors exit 2 (spec errors carry the offending line
 * number), an unreadable spec or unwritable --out exits 1; see
 * docs/EXPERIMENTS.md for the grammar and the checked-in gallery under
 * experiments/.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/spec_text.h"
#include "experiment/experiment.h"
#include "experiment/gallery.h"

namespace {

using namespace dilu;

int
Usage(const char* argv0)
{
  std::fprintf(stderr,
               "usage: %s <spec.exp> [--seed N] [--out FILE] "
               "[--export PREFIX] [--shards N] [--threads N] "
               "[--print]\n"
               "       %s --list [DIR]\n",
               argv0, argv0);
  return 2;
}

/** A whole-string positive int flag value ("4x", "0" and overflow fail). */
bool
ParsePositive(const char* text, int* out)
{
  std::int32_t v = 0;
  if (!spec_text::ParseInt(text, &v) || v < 1) return false;
  *out = v;
  return true;
}

int
ListGalleryDir(const std::string& dir)
{
  const std::vector<experiment::GalleryEntry> entries =
      experiment::ListGallery(dir, ".exp");
  if (entries.empty()) {
    std::fprintf(stderr, "no .exp specs under %s\n", dir.c_str());
    return 1;
  }
  std::fprintf(stdout, "experiments under %s:\n%s", dir.c_str(),
               experiment::FormatGallery(entries).c_str());
  return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
  const char* spec_path = nullptr;
  const char* out_path = nullptr;
  const char* export_prefix = nullptr;
  std::uint64_t seed = 0;
  int shards = 1;
  int threads = 1;
  bool print_only = false;
  if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
    if (argc > 3) return Usage(argv[0]);
    return ListGalleryDir(argc == 3 ? argv[2] : "experiments");
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!spec_text::ParseUint64(argv[++i], &seed)) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      if (!ParsePositive(argv[++i], &shards)) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParsePositive(argv[++i], &threads)) return Usage(argv[0]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--export") == 0 && i + 1 < argc) {
      export_prefix = argv[++i];
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

  std::ifstream in(spec_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", spec_path);
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  experiment::ExperimentSpec spec;
  std::string error;
  if (!experiment::ExperimentSpec::Parse(text.str(), &spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", spec_path, error.c_str());
    return 2;
  }
  if (print_only) {
    std::fputs(spec.ToText().c_str(), stdout);
    return 0;
  }
  if (shards > 1 && spec.pinned()) {
    std::fprintf(stderr,
                 "%s: deploy on= pins GPUs of the whole fleet; it cannot "
                 "run with --shards %d\n",
                 spec_path, shards);
    return 2;
  }

  std::fprintf(stderr,
               "running experiment '%s' (%zu deploys, %zu workloads, "
               "%zu chaos events, horizon %.0fs; %d shards, "
               "%d threads)\n",
               spec.name().c_str(), spec.deploys().size(),
               spec.workloads().size(), spec.chaos().events().size(),
               ToSec(spec.EffectiveRunFor()), shards, threads);

  experiment::RunOptions opts;
  opts.seed = seed;
  if (export_prefix != nullptr) opts.export_prefix = export_prefix;
  experiment::Experiment exp(std::move(spec), opts,
                             experiment::ShardOptions{shards, threads});
  const std::string json = exp.Run().ToJson();

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    const bool written = std::fputs(json.c_str(), f) != EOF;
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path);
  } else {
    std::fputs(json.c_str(), stdout);
  }
  return 0;
}
