/**
 * @file
 * result_dump <experiments-dir> <out-dir>: for each gallery spec, writes
 * <out-dir>/<spec>.txt with every double of its results at full
 * precision (%.17g), one line per run of the results manifest's matrix
 * (--seed 1 and 7 at 1, 2 and 3 shards, two threads). The JSON reports
 * print three decimals, so a metric that moves by one ulp shows only
 * here (tests/manifest.cmake).
 */
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "experiment/experiment.h"
#include "experiment/gallery.h"

int
main(int argc, char** argv)
{
  using namespace dilu::experiment;
  if (argc != 3) return 2;
  for (const GalleryEntry& g : ListGallery(argv[1], ".exp")) {
    std::ifstream in(g.path);
    std::ostringstream text;
    text << in.rdbuf();
    ExperimentSpec spec;
    std::string error;
    if (!ExperimentSpec::Parse(text.str(), &spec, &error)) return 2;
    std::string out;
    for (const int seed : {1, 7}) {
      for (const int shards : {1, 2, 3}) {
        RunOptions opts;
        opts.seed = static_cast<std::uint64_t>(seed);
        const ExperimentResult r =
            Experiment(spec, opts, {shards, 2}).Run();
        dilu::AppendJson(&out, "seed %d shards %d:", seed, shards);
        for (const FunctionResult& f : r.functions) {
          for (double v : {f.p50_ms, f.p95_ms, f.p99_ms, f.mean_ms,
                           f.svr_percent, f.availability_percent,
                           f.checkpoint_pause_s, f.jct_s,
                           f.throughput_units}) {
            dilu::AppendJson(&out, " %.17g", v);
          }
        }
        for (double v : {r.chaos.mean_ttr_s, r.chaos.max_ttr_s,
                         r.chaos.mean_ttsr_s, r.chaos.max_ttsr_s,
                         r.fabric_storage_gb, r.fabric_network_gb,
                         r.fabric_stall_s, r.avg_gpus, r.gpu_seconds,
                         r.overall_svr_percent,
                         r.overall_availability_percent}) {
          dilu::AppendJson(&out, " %.17g", v);
        }
        out += '\n';
      }
    }
    if (!(std::ofstream(std::string(argv[2]) + "/" + g.name + ".txt")
          << out)) {
      return 1;
    }
  }
  return 0;
}
