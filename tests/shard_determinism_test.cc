/**
 * @file
 * Sharded-driver determinism grid (docs/PARALLELISM.md acceptance
 * bar): the three CI-smoke specs — chaos_burst, overload_shed and
 * fabric_contention — must serialize byte-identically across reruns
 * AND across worker-thread counts at every shard count. shards=1 is
 * the reference semantics every golden pins, whatever the thread
 * count; shards>=2 is the partitioned fleet, a different but equally
 * valid system whose reports are only compared at the same shard
 * count. Shard requests above the spec's node count clamp
 * (fabric_contention has 2 nodes), which is itself part of the
 * contract under test.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "experiment/experiment.h"

namespace dilu {
namespace {

#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif
#ifndef DILU_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DILU_GOLDEN_DIR"
#endif

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream f(path, std::ios::binary);
  std::stringstream out;
  out << f.rdbuf();
  return out.str();
}

experiment::ExperimentSpec
LoadSpec(const std::string& name)
{
  const std::string text =
      ReadFileOrEmpty(std::string(DILU_EXPERIMENTS_DIR) + "/" + name);
  EXPECT_FALSE(text.empty()) << name;
  experiment::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
      << name << ": " << error;
  return spec;
}

/** One sharded run of `name` under (shards, threads), serialized. */
std::string
RunSharded(const std::string& name, int shards, int threads)
{
  experiment::RunOptions opts;
  opts.seed = 1;  // the CI smoke's invocation: dilu_run --seed 1
  experiment::Experiment exp(LoadSpec(name), opts,
                             experiment::ShardOptions{shards, threads});
  return exp.Run().ToJson();
}

class ShardDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardDeterminism, LegacyDriverIsRerunStable)
{
  // The default options (one shard, one thread): plain two-run
  // byte-equality.
  experiment::RunOptions opts;
  opts.seed = 1;
  experiment::Experiment run1(LoadSpec(GetParam()), opts);
  experiment::Experiment run2(LoadSpec(GetParam()), opts);
  EXPECT_EQ(run1.Run().ToJson(), run2.Run().ToJson());
}

TEST_P(ShardDeterminism, ShardedRunsAreThreadAndRerunInvariant)
{
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    const std::string reference = RunSharded(GetParam(), shards, 1);
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(RunSharded(GetParam(), shards, 4), reference)
        << "threads=4 diverged from threads=1";
    EXPECT_EQ(RunSharded(GetParam(), shards, 4), reference)
        << "threads=4 rerun diverged";
    EXPECT_EQ(RunSharded(GetParam(), shards, 1), reference)
        << "threads=1 rerun diverged";
  }
}

TEST(ShardDeterminism, OneShardOnFourThreadsMatchesTheGoldens)
{
  // One shard is the whole fleet under the spec's own seed and
  // scenario, so on any thread count it must reproduce the goldens the
  // plain run pins (overload_test / fabric_test, --seed 1).
  for (const char* name : {"overload_shed", "fabric_contention"}) {
    SCOPED_TRACE(name);
    const std::string golden = ReadFileOrEmpty(
        std::string(DILU_GOLDEN_DIR) + "/" + name + "_golden.json");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(RunSharded(std::string(name) + ".exp", 1, 4), golden);
  }
}

INSTANTIATE_TEST_SUITE_P(CiSmokeSpecs, ShardDeterminism,
                         ::testing::Values("chaos_burst.exp",
                                           "overload_shed.exp",
                                           "fabric_contention.exp"),
                         [](const auto& info) {
                           std::string n = info.param;
                           return n.substr(0, n.find('.'));
                         });

}  // namespace
}  // namespace dilu
