/**
 * @file
 * Sharded-driver tests (docs/PARALLELISM.md): SplitIntoShards as pure
 * data (node blocks, seeds, homing, target renumbering, owners, the
 * pinned horizon, loader-valid shard specs) without running anything;
 * a one-shard split run as a plain Experiment against the plain run;
 * island-aligned specs, checked-in and randomly generated, whose
 * sharded report must equal the one-shard report byte-for-byte; and a
 * randomized chaos storm across shard boundaries in which every shard
 * audits itself (AuditFleet / AuditFabric) from periodic events on its
 * own clock.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "experiment/experiment.h"
#include "experiment/gallery.h"
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

using experiment::ExperimentSpec;
using experiment::SplitIntoShards;

/** The fleet's node count: the preset plus the cluster overrides. */
int
FleetNodes(const ExperimentSpec& spec)
{
  return experiment::BuildClusterConfig(spec.cluster(), spec.fabric())
      .nodes;
}

// --- SplitIntoShards: the partition as data ----------------------------

/**
 * 10 nodes x 2 GPUs (blocks of 3, 3, 2, 2 nodes at n = 4), five
 * deploys, and chaos aimed at the block edges. The fail_link is added
 * last but fires first, so the split must follow time order.
 */
ExperimentSpec
EdgeSpec()
{
  ExperimentSpec spec("edges");
  spec.cluster().nodes = 10;
  spec.cluster().gpus_per_node = 2;
  spec.fabric().storage = true;
  for (int i = 0; i < 4; ++i) spec.AddInference("resnet152").provision = 1;
  spec.AddTraining("vgg19", 1, 100);
  spec.AddPoisson(0, 10.0, Sec(20));
  spec.AddPoisson(1, 10.0, Sec(30)).seed = 77;
  spec.chaos()
      .FailGpu(Sec(1), 5)     // node 2: shard 0's last GPU
      .FailGpu(Sec(2), 6)     // node 3: shard 1's first GPU
      .FailNode(Sec(3), 8)    // shard 3's first node
      .FailNode(Sec(4), 7)    // shard 2's last node
      .Surge(Sec(5), 1, 20.0, Sec(2))
      .CheckpointEvery(Sec(6), 4, Sec(10))
      .StorageBrownout(Sec(7), 2.0, Sec(3))
      .FailLink(Sec(0), 9, Sec(1));  // shard 3's last node
  return spec;
}

/** The events of shard spec `s`, as canonical lines. */
std::vector<std::string>
EventLines(const ExperimentSpec& s)
{
  std::vector<std::string> out;
  for (const chaos::ScenarioEvent& e : s.chaos().events()) {
    out.push_back(chaos::FormatEventLine(e));
  }
  return out;
}

TEST(SplitIntoShards, BalancedContiguousNodeBlocksAndShardSeeds)
{
  const std::vector<ExperimentSpec> shards =
      SplitIntoShards(EdgeSpec(), 5, 4, nullptr);
  ASSERT_EQ(shards.size(), 4u);
  const int want_nodes[] = {3, 3, 2, 2};
  for (std::size_t s = 0; s < shards.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "shard " << s);
    EXPECT_EQ(shards[s].name(), "edges");
    EXPECT_EQ(shards[s].cluster().nodes, want_nodes[s]);
    EXPECT_EQ(shards[s].cluster().gpus_per_node, 2);
    EXPECT_TRUE(shards[s].fabric().storage);
  }
  EXPECT_EQ(shards[0].cluster().seed, 5u) << "shard 0 keeps the seed";
  for (std::size_t a = 1; a < shards.size(); ++a) {
    EXPECT_NE(shards[a].cluster().seed, 5u);
    for (std::size_t b = a + 1; b < shards.size(); ++b) {
      EXPECT_NE(shards[a].cluster().seed, shards[b].cluster().seed);
    }
  }
}

TEST(SplitIntoShards, DeploysAndWorkloadsLiveOnTheirHomeShard)
{
  const ExperimentSpec spec = EdgeSpec();
  const std::vector<ExperimentSpec> shards =
      SplitIntoShards(spec, 5, 4, nullptr);
  // Deploy i is shard i % 4's local deploy i / 4.
  ASSERT_EQ(shards[0].deploys().size(), 2u);
  EXPECT_EQ(shards[0].deploys()[1].fn.model, "vgg19");
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_EQ(shards[s].deploys().size(), 1u);
  }
  // Workload 0 (fn 0) keeps shard 0's fn 0 with its stream seed pinned
  // from the global index; workload 1 (fn 1) becomes shard 1's fn 0
  // and keeps its explicit seed.
  ASSERT_EQ(shards[0].workloads().size(), 1u);
  EXPECT_EQ(shards[0].workloads()[0].fn, 0);
  EXPECT_EQ(shards[0].workloads()[0].seed,
            experiment::WorkloadStreamSeed(5, 0));
  ASSERT_EQ(shards[1].workloads().size(), 1u);
  EXPECT_EQ(shards[1].workloads()[0].fn, 0);
  EXPECT_EQ(shards[1].workloads()[0].seed, 77u);
  EXPECT_TRUE(shards[2].workloads().empty());
  EXPECT_TRUE(shards[3].workloads().empty());
  // Every shard runs to the whole spec's horizon, even one with
  // nothing to drive (its own derived horizon would end at 15 s).
  for (const ExperimentSpec& sh : shards) {
    EXPECT_EQ(sh.run_for(), spec.EffectiveRunFor());
  }
  EXPECT_EQ(spec.EffectiveRunFor(), Sec(35));
}

TEST(SplitIntoShards, ChaosGoesToTheTargetOwnerWithLocalIds)
{
  std::vector<int> owners;
  const std::vector<ExperimentSpec> shards =
      SplitIntoShards(EdgeSpec(), 5, 4, &owners);
  EXPECT_EQ(owners, (std::vector<int>{3, 0, 1, 3, 2, 1, 0, -1}));
  EXPECT_EQ(EventLines(shards[0]),
            (std::vector<std::string>{
                "at 1s fail_gpu 5",
                "at 6s checkpoint_every fn=1 every=10s",
                "at 7s storage_brownout x2 for 3s"}));
  EXPECT_EQ(EventLines(shards[1]),
            (std::vector<std::string>{
                "at 2s fail_gpu 0", "at 5s surge fn=0 rps=20 for 2s",
                "at 7s storage_brownout x2 for 3s"}));
  EXPECT_EQ(EventLines(shards[2]),
            (std::vector<std::string>{
                "at 4s fail_node 1", "at 7s storage_brownout x2 for 3s"}));
  EXPECT_EQ(EventLines(shards[3]),
            (std::vector<std::string>{
                "at 0s fail_link 1 for 1s", "at 3s fail_node 0",
                "at 7s storage_brownout x2 for 3s"}));
}

TEST(SplitIntoShards, OneShardIsTheWholeFleetInTimeOrder)
{
  const ExperimentSpec spec = EdgeSpec();
  std::vector<int> owners;
  const std::vector<ExperimentSpec> one =
      SplitIntoShards(spec, 5, 1, &owners);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].cluster().nodes, 10);
  EXPECT_EQ(one[0].deploys().size(), spec.deploys().size());
  EXPECT_EQ(one[0].workloads().size(), spec.workloads().size());
  EXPECT_EQ(owners, (std::vector<int>{0, 0, 0, 0, 0, 0, 0, -1}));
  EXPECT_EQ(EventLines(one[0]).front(), "at 0s fail_link 9 for 1s");
}

TEST(SplitIntoShards, EveryGalleryShardIsASpecTheLoaderAccepts)
{
  const std::vector<experiment::GalleryEntry> gallery =
      experiment::ListGallery(DILU_EXPERIMENTS_DIR, ".exp");
  ASSERT_GE(gallery.size(), 10u);
  std::vector<ExperimentSpec> specs{EdgeSpec()};
  for (const experiment::GalleryEntry& entry : gallery) {
    specs.push_back(LoadSpec(entry.name + ".exp"));
  }
  for (const ExperimentSpec& spec : specs) {
    for (int n = 2; n <= std::min(4, FleetNodes(spec)); ++n) {
      for (const ExperimentSpec& shard :
           SplitIntoShards(spec, 7, n, nullptr)) {
        SCOPED_TRACE(::testing::Message()
                     << spec.name() << " at n=" << n);
        const std::string text = shard.ToText();
        ExperimentSpec parsed;
        std::string error;
        ASSERT_TRUE(ExperimentSpec::Parse(text, &parsed, &error))
            << error << "\n" << text;
        EXPECT_EQ(parsed.ToText(), text);
      }
    }
  }
}

// --- a shard is an ordinary spec ---------------------------------------

TEST(ShardSpec, OneShardSplitRunsAsThePlainExperiment)
{
  for (const experiment::GalleryEntry& entry :
       experiment::ListGallery(DILU_EXPERIMENTS_DIR, ".exp")) {
    SCOPED_TRACE(entry.name);
    const ExperimentSpec spec = LoadSpec(entry.name + ".exp");
    experiment::RunOptions opts;
    opts.seed = 7;
    experiment::Experiment plain(spec, opts);
    experiment::Experiment shard(SplitIntoShards(spec, 7, 1, nullptr)[0]);
    EXPECT_EQ(shard.Run().ToJson(), plain.Run().ToJson());
  }
}

// --- island-aligned specs: sharding changes nothing --------------------

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

/**
 * A random island-aligned spec: k in [2, 6] exclusive-scheduled
 * inference functions on k nodes, each provisioned with a fixed count
 * that fits one node, no scaler, no warm-start cache, no chaos. At any
 * shard count n <= k a shard holds as many nodes as functions and no
 * two functions ever share a GPU, so splitting must not move a byte of
 * the report.
 */
ExperimentSpec
RandomIslandSpec(Rng& rng)
{
  const char* const models[] = {"resnet152", "bert-base", "roberta-large"};
  const int k = static_cast<int>(rng.UniformInt(2, 6));
  const int gpus = static_cast<int>(rng.UniformInt(1, 4));
  ExperimentSpec spec("random_islands");
  spec.cluster().nodes = k;
  spec.cluster().gpus_per_node = gpus;
  spec.cluster().scheduler = "exclusive";
  spec.cluster().warm_starts = false;
  spec.cluster().seed = static_cast<std::uint64_t>(rng.UniformInt(1, 999));
  for (int f = 0; f < k; ++f) {
    spec.AddInference(models[rng.UniformInt(0, 2)]).provision =
        static_cast<int>(rng.UniformInt(1, gpus));
    const double rps = static_cast<double>(rng.UniformInt(5, 40));
    const TimeUs duration = Sec(rng.UniformInt(10, 30));
    experiment::WorkloadSpec& w = rng.UniformInt(0, 1) == 0
        ? spec.AddPoisson(f, rps, duration)
        : spec.AddGamma(f, rps, 2.0, duration);
    w.start = Sec(rng.UniformInt(0, 5));
    if (rng.UniformInt(0, 1) == 0) {
      w.seed = static_cast<std::uint64_t>(rng.UniformInt(1, 999));
    }
  }
  spec.RunFor(Sec(40));
  return spec;
}

TEST(ShardedExperiment, RandomIslandSpecsMatchOneShardByteForByte)
{
  Rng rng(0x151A4Du);
  for (int round = 0; round < 6; ++round) {
    const ExperimentSpec spec = RandomIslandSpec(rng);
    SCOPED_TRACE(::testing::Message() << "round " << round << "\n"
                                      << spec.ToText());
    const std::string want = experiment::Experiment(spec).Run().ToJson();
    const int k = FleetNodes(spec);
    for (int n = 2; n <= k; ++n) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "shards " << n << " threads " << threads);
        experiment::Experiment sharded(
            spec, {}, experiment::ShardOptions{n, threads});
        EXPECT_EQ(sharded.Run().ToJson(), want);
      }
    }
  }
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
  Rng rng(seed);
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
  // Fisher-Yates through Rng: std::shuffle's draws are
  // implementation-defined.
  const auto shuffle = [&rng](std::vector<int>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  };
  shuffle(nodes);
  shuffle(gpus);

  const auto when = [&rng](int lo, int hi) {
    return static_cast<int>(rng.UniformInt(lo, hi));
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
