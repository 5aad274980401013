/**
 * @file
 * Golden-file determinism test for trace_export: a fixed chaos
 * scenario (node failure + degrade + straggle + checkpointed training,
 * fixed seed) is simulated and its fault audit log (`_faults.csv`) and
 * 1 Hz samples CSV are compared byte-for-byte against checked-in
 * goldens. Any change to the fault pipeline, the export schema or the
 * simulation's determinism shows up as a diff here — deliberate
 * changes regenerate the goldens with one command:
 *
 *   DILU_REGEN_GOLDEN=1 ./tests/trace_golden_test
 *
 * (run from any directory; the golden path is compiled in via
 * DILU_GOLDEN_DIR, which points at tests/golden/ in the source tree).
 * Commit the rewritten CSVs together with the change that motivated
 * them.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "chaos/chaos_engine.h"
#include "cluster/trace_export.h"
#include "scaling/global_scaler.h"
#include "workload/arrival.h"

namespace dilu {
namespace {

#ifndef DILU_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DILU_GOLDEN_DIR"
#endif

std::string
GoldenPath(const std::string& name)
{
  return std::string(DILU_GOLDEN_DIR) + "/" + name;
}

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream f(path, std::ios::binary);
  std::stringstream out;
  out << f.rdbuf();
  return out.str();
}

/** The pinned scenario: every new fault verb plus a displacing fault. */
struct GoldenRun {
  std::unique_ptr<cluster::ClusterRuntime> rt;
  std::string faults_csv;
  std::string samples_csv;

  GoldenRun()
  {
    cluster::ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.seed = 2026;
    rt = std::make_unique<cluster::ClusterRuntime>(cfg);

    core::FunctionSpec serve;
    serve.model = "resnet152";
    serve.type = TaskType::kInference;
    const FunctionId fn = rt->Deploy(serve);
    rt->LaunchInference(fn, /*cold=*/false);
    rt->LaunchInference(fn, /*cold=*/false);
    rt->EnableAutoscaler(fn,
                         std::make_unique<scaling::DiluLazyScaler>());
    rt->AttachArrivals(
        fn, std::make_unique<workload::PoissonArrivals>(40.0, Rng(5)),
        Sec(60));

    core::FunctionSpec train;
    train.model = "bert-base";
    train.type = TaskType::kTraining;
    train.workers = 2;
    train.target_iterations = 2000000;
    const FunctionId job = rt->Deploy(train);
    EXPECT_TRUE(rt->StartTraining(job, /*cold=*/false));

    chaos::ScenarioSpec spec;
    spec.CheckpointEvery(Sec(1), job, Sec(5))
        .DegradeGpu(Sec(10), 8, 0.5)
        .StraggleGpu(Sec(15), 9, 2.5)
        .FailNode(Sec(20), 0)
        .RecoverNode(Sec(40), 0)
        .RecoverGpu(Sec(45), 8)
        .RecoverGpu(Sec(45), 9);
    chaos::ChaosEngine engine(rt.get(), spec);
    engine.Arm();
    rt->RunFor(Sec(60));

    faults_csv = cluster::ExportFaultLog(rt->metrics()).ToString();
    samples_csv =
        cluster::ExportClusterSamples(rt->metrics()).ToString();
  }
};

TEST(TraceGolden, FaultLogAndSamplesMatchCheckedInGoldens)
{
  GoldenRun run;

  if (std::getenv("DILU_REGEN_GOLDEN") != nullptr) {
    std::ofstream(GoldenPath("chaos_golden_faults.csv"),
                  std::ios::binary)
        << run.faults_csv;
    std::ofstream(GoldenPath("chaos_golden_samples.csv"),
                  std::ios::binary)
        << run.samples_csv;
    GTEST_SKIP() << "goldens regenerated into " << DILU_GOLDEN_DIR;
  }

  // Byte-for-byte: any schema or determinism drift is a hard diff.
  EXPECT_EQ(run.faults_csv,
            ReadFileOrEmpty(GoldenPath("chaos_golden_faults.csv")))
      << "fault log drifted; regenerate deliberately with "
         "DILU_REGEN_GOLDEN=1 (see file header)";
  EXPECT_EQ(run.samples_csv,
            ReadFileOrEmpty(GoldenPath("chaos_golden_samples.csv")))
      << "samples drifted; regenerate deliberately with "
         "DILU_REGEN_GOLDEN=1 (see file header)";

  // Sanity: the goldens actually exercise the new fault verbs.
  EXPECT_NE(run.faults_csv.find("gpu_degrade"), std::string::npos);
  EXPECT_NE(run.faults_csv.find("gpu_straggle"), std::string::npos);
  EXPECT_NE(run.faults_csv.find("checkpoint_policy"), std::string::npos);
  EXPECT_NE(run.faults_csv.find("node_fail"), std::string::npos);
}

TEST(TraceGolden, TwoInProcessRunsAreByteIdentical)
{
  // Independent of the checked-in files: the pinned scenario is
  // deterministic within a build, armed degraded/checkpoint verbs
  // included.
  GoldenRun a;
  GoldenRun b;
  EXPECT_EQ(a.faults_csv, b.faults_csv);
  EXPECT_EQ(a.samples_csv, b.samples_csv);
}

}  // namespace
}  // namespace dilu
