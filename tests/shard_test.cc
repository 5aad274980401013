/**
 * @file
 * Sharded-driver tests (docs/PARALLELISM.md): the engineered
 * shard-islands spec, whose sharded report must equal the one-shard
 * report byte-for-byte, and a randomized chaos storm across shard
 * boundaries in which every shard audits itself (AuditFleet /
 * AuditFabric) from periodic events on its own clock.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "invariant_audit.h"

namespace dilu {
namespace {

#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif

// --- the engineered islands spec ---------------------------------------

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

TEST(ShardedExperiment, IslandsSpecMatchesLegacyByteForByte)
{
  // shard_islands.exp is engineered so its four single-function
  // islands coincide exactly with the shards=4 partition: nothing ever
  // crosses a shard boundary, so the merged sharded report must equal
  // the one-shard report byte-for-byte. This is the same
  // diff the CI experiment-smoke job performs via dilu_run.
  experiment::Experiment legacy(LoadSpec("shard_islands.exp"));
  const std::string want = legacy.Run().ToJson();

  experiment::Experiment sharded(LoadSpec("shard_islands.exp"), {},
                                 experiment::ShardOptions{4, 4});
  EXPECT_EQ(sharded.Run().ToJson(), want)
      << "an island-aligned partition must merge losslessly";
}

// --- randomized chaos storm across shards, audited in every shard -----

/**
 * Generate a storm spec: a 6-node mixed fleet (two scaled inference
 * functions, one checkpointing training job, contended storage/NIC
 * tiers) plus `pairs` random fail/recover pairs over distinct nodes
 * and GPUs. The generator is seeded, so the "random" storm is stable
 * across runs — randomized coverage, deterministic test.
 */
std::string
MakeStormSpecText(std::uint64_t seed)
{
  std::mt19937_64 rng(seed);
  std::ostringstream out;
  out << "experiment shard_storm\n";
  out << "cluster nodes=6 gpus_per_node=4 seed=3\n";
  out << "storage bw=2 gc=0.1 devices=1\n";
  out << "nic rate=10 burst=0.05\n";
  out << "deploy model=resnet152 provision=2 scaler=dilu-lazy\n";
  out << "deploy model=bert-base provision=2 scaler=dilu-lazy\n";
  out << "deploy model=vgg19 training workers=1 iterations=4000"
         " checkpoint_every=10s\n";
  out << "workload fn=0 poisson rps=40 for 30s\n";
  out << "workload fn=1 poisson rps=40 for 30s\n";

  // Distinct targets per kind keep fail/recover pairs well-formed
  // without modelling overlap rules here.
  std::vector<int> nodes{0, 1, 2, 3, 4, 5};
  std::vector<int> gpus(24);
  for (int g = 0; g < 24; ++g) gpus[static_cast<std::size_t>(g)] = g;
  std::shuffle(nodes.begin(), nodes.end(), rng);
  std::shuffle(gpus.begin(), gpus.end(), rng);

  const auto when = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int i = 0; i < 2; ++i) {  // node outages
    const int t = when(5, 15);
    out << "chaos at " << t << "s fail_node " << nodes.back() << "\n";
    out << "chaos at " << t + when(3, 8) << "s recover_node "
        << nodes.back() << "\n";
    nodes.pop_back();
  }
  for (int i = 0; i < 4; ++i) {  // single-GPU outages
    const int t = when(5, 18);
    out << "chaos at " << t << "s fail_gpu " << gpus.back() << "\n";
    out << "chaos at " << t + when(2, 6) << "s recover_gpu "
        << gpus.back() << "\n";
    gpus.pop_back();
  }
  for (int i = 0; i < 2; ++i) {  // partial SM loss, then heal
    const int t = when(6, 18);
    out << "chaos at " << t << "s degrade_gpu " << gpus.back()
        << " x0." << when(3, 7) << "\n";
    out << "chaos at " << t + when(2, 6) << "s recover_gpu "
        << gpus.back() << "\n";
    gpus.pop_back();
  }
  out << "chaos at " << when(8, 16) << "s fail_link " << nodes.back()
      << " for 5s\n";
  out << "chaos at " << when(10, 20) << "s storage_brownout x3 for 8s\n";
  out << "run for 40s\n";
  return out.str();
}

/** One shard's cross-layer invariants, at its current time. */
void
AuditShard(cluster::ClusterRuntime& rt, int shard)
{
  SCOPED_TRACE(::testing::Message()
               << "shard " << shard << " at " << rt.now() << "us");
  testing::AuditFleet(rt.state(), rt);
  if (rt.fabric() != nullptr) {
    testing::AuditFabric(*rt.fabric(), rt.now());
  }
}

TEST(ShardedExperiment, RandomizedStormAuditsCleanInEveryShard)
{
  const std::string text = MakeStormSpecText(0xD11Du);
  experiment::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
      << error << "\n" << text;

  experiment::Experiment exp(spec, {}, experiment::ShardOptions{3, 4});
  // Each shard audits itself every 500 ms from an event on its own
  // clock: the audit runs on whichever worker advances that shard and
  // writes only that shard's counter.
  std::vector<int> audits(static_cast<std::size_t>(exp.shard_count()), 0);
  for (int s = 0; s < exp.shard_count(); ++s) {
    cluster::ClusterRuntime& rt = exp.runtime(s);
    int& count = audits[static_cast<std::size_t>(s)];
    rt.simulation().SchedulePeriodic(Ms(500), Ms(500), [&rt, &count, s] {
      ++count;
      AuditShard(rt, s);
    });
  }
  exp.set_barrier_probe([&exp](TimeUs) {
    for (int s = 0; s < exp.shard_count(); ++s) AuditShard(exp.runtime(s), s);
  });
  const std::string first = exp.Run().ToJson();
  for (int s = 0; s < exp.shard_count(); ++s) {
    EXPECT_GE(audits[static_cast<std::size_t>(s)], 80)
        << "shard " << s << " must audit every 500ms of its 40s run";
  }

  // The same storm, unaudited and on one thread, byte-identical.
  experiment::ExperimentSpec spec2;
  ASSERT_TRUE(experiment::ExperimentSpec::Parse(text, &spec2, &error));
  experiment::Experiment again(spec2, {}, experiment::ShardOptions{3, 1});
  EXPECT_EQ(again.Run().ToJson(), first)
      << "storm must not depend on the worker count";
}

}  // namespace
}  // namespace dilu
