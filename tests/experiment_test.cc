/**
 * @file
 * Declarative experiment API tests: builder/text round-trip, comment
 * and blank-line handling, line-numbered parse errors, the checked-in
 * experiments/ gallery, and the Experiment driver itself — pipeline
 * wiring, byte-for-byte run determinism (the `dilu_run --seed`
 * guarantee), warmup exclusion and closed-loop drive survival under
 * faults.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "scheduler/gpu_state.h"

namespace dilu {
namespace {

using experiment::ArrivalKind;
using experiment::Experiment;
using experiment::ExperimentResult;
using experiment::ExperimentSpec;

/** A spec touching every grammar section. */
ExperimentSpec
FullSpec()
{
  ExperimentSpec s("full");
  s.cluster().nodes = 2;
  s.cluster().recovery = "greedy";
  s.cluster().seed = 9;
  auto& inf = s.AddInference("resnet152");
  inf.fn.name = "front";
  inf.provision = 2;
  inf.scaler = "dilu-lazy";
  inf.fn.admission_class = ServiceClass::kCritical;
  inf.fn.queue_cap = 128;
  inf.fn.retry_budget = 2;
  inf.fn.retry_backoff = Ms(250);
  inf.fn.deadline = Sec(2);
  s.AddInference("llama2-7b").fn.shards = 2;
  auto& tr = s.AddTraining("bert-base", 2, 500);
  tr.start = Sec(10);
  tr.fn.checkpoint_every = Sec(30);
  tr.fn.checkpoint_save_cost = Ms(500);
  s.AddPoisson(0, 40.0, Sec(60)).warmup = Sec(5);
  auto& g = s.AddGamma(1, 5.0, 4.0, Sec(50));
  g.start = Sec(5);
  g.seed = 77;
  auto& b = s.AddTrace(0, ArrivalKind::kBursty, 60.0, Sec(60));
  b.scale = 1.5;
  b.burst_len = Sec(20);
  s.chaos().FailNode(Sec(30), 0).RecoverNode(Sec(45), 0);
  s.RunFor(Sec(70));
  s.ExportTo("/tmp/dilu_exp_roundtrip");
  return s;
}

TEST(ExperimentSpecText, RoundTripIsByteIdentical)
{
  const ExperimentSpec spec = FullSpec();
  const std::string text = spec.ToText();

  ExperimentSpec parsed;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(text, &parsed, &error))
      << error << "\n" << text;
  EXPECT_EQ(parsed.ToText(), text);

  EXPECT_EQ(parsed.name(), "full");
  ASSERT_EQ(parsed.deploys().size(), 3u);
  EXPECT_EQ(parsed.deploys()[0].fn.name, "front");
  EXPECT_EQ(parsed.deploys()[0].provision, 2);
  EXPECT_EQ(parsed.deploys()[0].fn.admission_class,
            ServiceClass::kCritical);
  EXPECT_EQ(parsed.deploys()[0].fn.queue_cap, 128);
  EXPECT_EQ(parsed.deploys()[0].fn.retry_budget, 2);
  EXPECT_EQ(parsed.deploys()[0].fn.retry_backoff, Ms(250));
  EXPECT_EQ(parsed.deploys()[0].fn.deadline, Sec(2));
  EXPECT_EQ(parsed.deploys()[1].fn.shards, 2);
  EXPECT_EQ(parsed.deploys()[2].fn.type, TaskType::kTraining);
  EXPECT_EQ(parsed.deploys()[2].fn.checkpoint_save_cost, Ms(500));
  EXPECT_EQ(parsed.deploys()[2].start, Sec(10));
  ASSERT_EQ(parsed.workloads().size(), 3u);
  EXPECT_EQ(parsed.workloads()[0].warmup, Sec(5));
  EXPECT_EQ(parsed.workloads()[1].seed, std::uint64_t{77});
  EXPECT_DOUBLE_EQ(parsed.workloads()[2].scale, 1.5);
  ASSERT_EQ(parsed.chaos().events().size(), 2u);
  EXPECT_EQ(parsed.run_for(), Sec(70));
  EXPECT_EQ(parsed.export_prefix(), "/tmp/dilu_exp_roundtrip");
  ASSERT_TRUE(parsed.cluster().recovery.has_value());
  EXPECT_EQ(*parsed.cluster().recovery, "greedy");

  // Doubles print in as many digits as they need: the printed spec
  // must describe the same run, not one rounded to 6 digits.
  ExperimentSpec precise("precise");
  precise.AddInference("bert-base");
  precise.AddPoisson(0, 12.3456789, Sec(10));
  precise.chaos().Overload(Sec(1), 0, 10.0 / 3.0, Sec(2));
  const std::string precise_text = precise.ToText();
  ASSERT_TRUE(ExperimentSpec::Parse(precise_text, &parsed, &error))
      << error << "\n" << precise_text;
  EXPECT_EQ(parsed.ToText(), precise_text);
  EXPECT_EQ(parsed.workloads()[0].rps, 12.3456789) << precise_text;
  EXPECT_EQ(parsed.chaos().events()[0].magnitude, 10.0 / 3.0)
      << precise_text;
}

TEST(ExperimentSpecText, AcceptsCommentsAndBlankLines)
{
  const std::string text =
      "# a whole-line comment\n"
      "experiment smoke  # trailing comment after the name\n"
      "\n"
      "deploy model=bert-base provision=1   # one warm instance\n"
      "workload fn=0 poisson rps=20 for 30s # drive it\n"
      "chaos at 10s fail_gpu 0              # stray comment, not an error\n"
      "\n";
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(text, &spec, &error)) << error;
  EXPECT_EQ(spec.name(), "smoke");
  ASSERT_EQ(spec.deploys().size(), 1u);
  ASSERT_EQ(spec.workloads().size(), 1u);
  ASSERT_EQ(spec.chaos().events().size(), 1u);
}

TEST(ExperimentSpecText, RejectsBadLinesWithLineNumbers)
{
  const char* bad[] = {
      "frobnicate now",                                  // unknown directive
      "deploy model=not-a-model",                        // unknown model
      "deploy model=bert-base turbo=on",                 // unknown key
      "deploy model=bert-base workers=2",                // training key w/o word
      "deploy model=bert-base training provision=2",     // inference key
      "workload fn=0 poisson rps=30 for 10s",            // fn w/o deploy
      "deploy model=bert-base\nworkload fn=0 poisson rps=30",  // no 'for'
      "deploy model=bert-base\nworkload fn=0 warp rps=3 for 5s",  // kind
      "deploy model=bert-base\nworkload fn=0 poisson rps=-1 for 5s",
      // Non-finite numbers slip past `x <= 0` range checks.
      "deploy model=bert-base\nworkload fn=0 poisson rps=nan for 5s",
      "deploy model=bert-base\nworkload fn=0 poisson rps=inf for 5s",
      "deploy model=bert-base\nworkload fn=0 periodic rps=5 "
      "amplitude=nan for 5s",
      "storage gc=nan",
      "deploy model=bert-base\nchaos at 5s surge fn=3 rps=10 for 2s",
      "deploy model=bert-base\nchaos at 5s checkpoint_every fn=0 every=5s",
      "deploy model=bert-base training\nworkload fn=0 poisson rps=9 for 5s",
      "deploy model=bert-base\nworkload fn=0 closed clients=2 think=50ms "
      "for 5s\nworkload fn=0 poisson rps=9 for 5s",      // closed + open mix
      "run for ever",                                    // bad run line
      "cluster nodes=0",                                 // bad value
      "cluster preset=warp9",                            // unknown preset
      "export",                                          // missing prefix
      // Keys from a different arrival kind are typos, not no-ops.
      "deploy model=bert-base\nworkload fn=0 poisson rps=5 cv=2 for 5s",
      "deploy model=bert-base\nworkload fn=0 closed clients=2 "
      "think=50ms rps=9 for 5s",
      "deploy model=bert-base\nworkload fn=0 bursty rps=5 period=10s "
      "for 5s",
      // Out-of-range integers error instead of silently truncating.
      "cluster nodes=8589934593",
      "deploy model=bert-base\nworkload fn=4294967296 poisson rps=5 "
      "for 5s",
      // Times beyond the ~31-year cap error instead of overflowing.
      "deploy model=bert-base\nworkload fn=0 poisson rps=5 "
      "start=9000000000000s for 5s",
      // Overload-resilience keys: validated and inference-only.
      "deploy model=bert-base class=vip",                // unknown class
      "deploy model=bert-base queue_cap=0",              // cap must be >= 1
      "deploy model=bert-base retries=-1",               // negative budget
      "deploy model=bert-base backoff=0s",               // non-positive time
      "deploy model=bert-base deadline=0s",              // non-positive time
      "deploy model=bert-base training class=critical",  // training deploy
      "deploy model=bert-base training queue_cap=8",     // training deploy
      "deploy model=bert-base training retries=1",       // training deploy
      "deploy model=bert-base training backoff=1s",      // training deploy
      // Default values too: the key, not its value, is misplaced.
      "deploy model=bert-base workers=1",                // training key
      "deploy model=bert-base iterations=0",             // training key
      "deploy model=bert-base start=0s",                 // training key
      "deploy model=bert-base training provision=0",     // inference key
      "deploy model=bert-base training retries=0",       // inference key
      "deploy model=bert-base training shards=1",        // inference key
      // New chaos verbs cross-validate their fn reference.
      "deploy model=bert-base\nchaos at 5s overload fn=3 x4 for 2s",
      "deploy model=bert-base training\n"
      "chaos at 5s overload fn=0 x4 for 2s",
      "deploy model=bert-base\nchaos at 5s throttle_admit fn=9 rate=5 "
      "for 2s",
      "deploy model=bert-base training\n"
      "chaos at 5s throttle_admit fn=0 rate=5 for 2s",
      // GPU and node targets lie inside the fleet (default 1 node x 4).
      "chaos at 1s fail_gpu 4",
      "cluster nodes=2 gpus_per_node=2\nchaos at 1s degrade_gpu 4 x0.5",
      "chaos at 1s fail_node 1",
      "cluster nodes=3\nchaos at 1s drain_node 3",
      "nic\nchaos at 1s fail_link 1 for 5s",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(ExperimentSpec::Parse(text, nullptr, &error))
        << "accepted: " << text;
    EXPECT_NE(error.find("line "), std::string::npos) << error;
  }
}

TEST(ExperimentSpecText, MaxTokensIsAPositiveClusterKey)
{
  // RCKM MaxTokens (Fig 18(b)): anything but a positive number is the
  // key row's message, and a set value reaches ClusterConfig.
  for (const char* value : {"0", "-5", "abc"}) {
    std::string error;
    EXPECT_FALSE(ExperimentSpec::Parse(
        std::string("cluster max_tokens=") + value, nullptr, &error))
        << value;
    EXPECT_EQ(error, "line 1: max_tokens must be > 0") << value;
  }
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse("cluster max_tokens=2000\n", &spec,
                                    &error))
      << error;
  EXPECT_EQ(
      experiment::BuildClusterConfig(spec.cluster(), spec.fabric())
          .max_tokens,
      2000.0);
}

TEST(ExperimentSpecText, ChaosTargetsAreBoundedByThePresetFleet)
{
  // The fleet is the preset plus the cluster overrides, the same size
  // the driver builds and splits: the last GPU and node are fine, one
  // past them is a line-numbered error.
  std::string error;
  EXPECT_TRUE(ExperimentSpec::Parse(
      "cluster nodes=2 gpus_per_node=3\nchaos at 1s fail_gpu 5\n"
      "chaos at 2s fail_node 1\n",
      nullptr, &error))
      << error;
  EXPECT_FALSE(ExperimentSpec::Parse(
      "cluster nodes=1\nchaos at 1s fail_gpu 9\n", nullptr, &error));
  EXPECT_EQ(error,
            "line 2: fail_gpu targets GPU 9 outside the fleet of 4 GPUs");
  EXPECT_FALSE(ExperimentSpec::Parse(
      "cluster nodes=2 gpus_per_node=3\nstorage\n"
      "chaos at 1s fail_link 2 for 5s\n",
      nullptr, &error));
  EXPECT_EQ(error,
            "line 3: fail_link targets node 2 outside the fleet of 2 nodes");
}

TEST(ExperimentSpecText, PinsAreCheckedAgainstLineFleetAndMemory)
{
  // Each rejection names the deploy's line; none reaches the driver.
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      // Outside the fleet (default 1 node x 4 GPUs), also when the
      // cluster line comes later.
      {"experiment p\ndeploy model=bert-base on=4\n",
       "line 2: on= GPU 4 is outside the fleet of 4 GPUs"},
      {"experiment p\ndeploy model=bert-base on=8\ncluster nodes=2\n",
       "line 2: on= GPU 8 is outside the fleet of 8 GPUs"},
      // One GPU per shard (inference) or worker (training).
      {"experiment p\ndeploy model=llama2-7b shards=2 on=0\n",
       "line 2: on= lists 1 GPUs for 2 shards; the counts must match"},
      {"experiment p\ndeploy model=vgg19 training workers=2 on=0,1,2\n",
       "line 2: on= lists 3 GPUs for 2 workers; the counts must match"},
      // A pin is the launch: no scheduler-placed or delayed one beside.
      {"experiment p\ndeploy model=bert-base provision=1 on=0\n",
       "line 2: on= is a warm launch at t=0; it cannot combine with "
       "provision= or start="},
      {"experiment p\ndeploy model=vgg19 training start=5s on=0\n",
       "line 2: on= is a warm launch at t=0; it cannot combine with "
       "provision= or start="},
      // Two 34 GB LLaMA2-7B workers do not fit one 40 GB GPU.
      {"experiment p\ndeploy model=llama2-7b training on=1\n"
       "deploy model=bert-base on=0\ndeploy model=llama2-7b training on=1\n",
       "line 4: on= overflows GPU 1's memory: 34 GB pinned + 34 GB > 40 GB"},
      // Malformed lists and priorities.
      {"experiment p\ndeploy model=bert-base shards=2 on=0,0\n",
       "line 2: on wants distinct GPU ids >= 0, comma-separated (e.g. "
       "on=0,1)"},
      {"experiment p\ndeploy model=bert-base on=-1\n",
       "line 2: on wants distinct GPU ids"},
      {"experiment p\ndeploy model=bert-base shards=2 on=0,,1\n",
       "line 2: on wants distinct GPU ids"},
      {"experiment p\ndeploy model=bert-base on=a\n",
       "line 2: on wants distinct GPU ids"},
      {"experiment p\ndeploy model=bert-base priority=-1\n",
       "line 2: priority must be >= 0"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.text);
    std::string error;
    EXPECT_FALSE(ExperimentSpec::Parse(c.text, nullptr, &error));
    EXPECT_EQ(error.rfind(c.error, 0), 0u) << error;
  }
  // Up to the capacity is fine, and the canonical form round-trips.
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(
      "experiment p\ndeploy model=llama2-7b training priority=1 on=1\n"
      "deploy model=llama2-7b shards=4 priority=0 on=3,2,1,0\n",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.deploys()[1].on, (std::vector<GpuId>{3, 2, 1, 0}));
  EXPECT_EQ(spec.deploys()[1].fn.priority, 0);
  EXPECT_TRUE(spec.pinned());
  EXPECT_EQ(spec.ToText(),
            "experiment p\n"
            "deploy model=llama2-7b training priority=1 on=1\n"
            "deploy model=llama2-7b shards=4 priority=0 on=3,2,1,0\n");
}

TEST(ExperimentDriver, PinsLaunchWarmOnTheirGpus)
{
  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(
      "experiment pins\ncluster nodes=2\n"
      "deploy model=vgg19 training workers=2 on=6,7\n"
      "deploy model=resnet152 shards=2 on=5,6\n"
      "workload fn=1 poisson rps=5 for 5s\nrun for 6s\n",
      &spec, &error))
      << error;
  Experiment exp(spec);
  const ExperimentResult r = exp.Run();
  // vgg19 training (10 GB per worker) on 6 and 7, a resnet152 shard
  // (2.5 / 2 GB) on 5 and 6, nothing anywhere else.
  const scheduler::ClusterState& state = exp.runtime().state();
  for (GpuId g = 0; g < 8; ++g) {
    const double want = g == 5 ? 1.25 : g == 6 ? 11.25 : g == 7 ? 10.0 : 0.0;
    EXPECT_DOUBLE_EQ(state.gpu(g).mem_used, want) << "GPU " << g;
  }
  EXPECT_EQ(r.functions[1].cold_starts, 0);
  EXPECT_GT(r.functions[1].completed, 0);
  EXPECT_GT(r.functions[0].iterations, 0);
}

TEST(ExperimentDriverDeathTest, PinnedSpecCannotBeSharded)
{
  ExperimentSpec spec("pinned");
  spec.cluster().nodes = 2;
  spec.AddInference("bert-base").on = {0};
  EXPECT_DEATH(Experiment(spec, {}, experiment::ShardOptions{2, 1}),
               "pinned");
}

TEST(ExperimentSpecText, GalleryParsesAndCanonicalizes)
{
  namespace fs = std::filesystem;
  int specs = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(DILU_EXPERIMENTS_DIR)) {
    if (entry.path().extension() != ".exp") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();

    ExperimentSpec spec;
    std::string error;
    ASSERT_TRUE(ExperimentSpec::Parse(text.str(), &spec, &error)) << error;
    // Canonicalization is a fixed point: print -> parse -> print.
    const std::string canonical = spec.ToText();
    ExperimentSpec reparsed;
    ASSERT_TRUE(ExperimentSpec::Parse(canonical, &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.ToText(), canonical);
    ++specs;
  }
  EXPECT_GE(specs, 5) << "experiments/ gallery went missing?";
}

// tests/golden/every_key.exp pins the canonical printer to a recorded
// text: one spec setting every directive, key and chaos verb to a
// non-default value. Unlike the fuzz round-trips, which only compare
// the printer with itself, this catches a change in key order,
// spelling or default omission.
TEST(ExperimentSpecText, EveryKeyGoldenIsCanonical)
{
  std::ifstream in(std::string(DILU_GOLDEN_DIR) + "/every_key.exp");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();

  ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(text.str(), &spec, &error)) << error;
  EXPECT_EQ(spec.ToText(), text.str());
  for (int k = 0; k <= static_cast<int>(chaos::FaultKind::kStorageBrownout);
       ++k) {
    const std::string verb =
        std::string(" ") + chaos::ToString(static_cast<chaos::FaultKind>(k))
        + " ";
    EXPECT_NE(text.str().find(verb), std::string::npos) << verb;
  }
}

// --- the driver ------------------------------------------------------

/** Small chaos spec: fast enough for a unit test, still end to end. */
ExperimentSpec
SmallChaosSpec()
{
  ExperimentSpec s("driver_smoke");
  s.cluster().nodes = 2;
  s.cluster().seed = 5;
  auto& d = s.AddInference("bert-base");
  d.provision = 2;
  d.scaler = "dilu-lazy";
  s.AddPoisson(0, 30.0, Sec(20));
  s.chaos().FailGpu(Sec(5), 0).RecoverGpu(Sec(12), 0);
  s.RunFor(Sec(25));
  return s;
}

TEST(ExperimentDriver, RunIsByteForByteDeterministic)
{
  auto run = [] {
    Experiment exp(SmallChaosSpec());
    return exp.Run().ToJson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  // A different seed changes the workload stream (and thus the JSON).
  experiment::RunOptions opts;
  opts.seed = 99;
  Experiment exp(SmallChaosSpec(), opts);
  EXPECT_NE(exp.Run().ToJson(), a);
}

TEST(ExperimentDriver, PipelineWiresChaosAndRecoveryAccounting)
{
  Experiment exp(SmallChaosSpec());
  const ExperimentResult r = exp.Run();
  EXPECT_EQ(r.experiment, "driver_smoke");
  EXPECT_EQ(r.seed, std::uint64_t{5});
  ASSERT_EQ(r.functions.size(), 1u);
  EXPECT_GT(r.functions[0].completed, 0);
  EXPECT_EQ(r.chaos.injected, 2);
  EXPECT_EQ(r.chaos.disruptive, 1);
  EXPECT_EQ(r.chaos.recovered, 1);
  EXPECT_GE(r.functions[0].recovery_cold_starts, 1);
  EXPECT_GT(r.max_gpus, 0);
}

TEST(ExperimentDriver, WarmupExcludesEarlyRequestsFromMetrics)
{
  // Both runs drive twelve seconds of constant arrivals; the second
  // marks the first ten as warmup, so only the two-second tail counts.
  auto completed = [](TimeUs warmup, TimeUs duration) {
    ExperimentSpec s("warmup");
    s.cluster().nodes = 1;
    s.AddInference("bert-base").provision = 1;
    auto& w = s.AddConstant(0, 20.0, duration);
    w.warmup = warmup;
    s.RunFor(Sec(14));
    Experiment exp(std::move(s));
    return exp.Run().functions[0].completed;
  };
  const std::int64_t all = completed(0, Sec(12));
  const std::int64_t tail = completed(Sec(10), Sec(2));
  EXPECT_GT(all, 0);
  EXPECT_GT(tail, 0);
  EXPECT_LT(tail, all / 2);
}

TEST(ExperimentDriver, ClosedLoopServesAndSurvivesFaults)
{
  ExperimentSpec s("closed");
  s.cluster().nodes = 1;
  s.cluster().gpus_per_node = 1;  // the failure leaves zero capacity
  s.AddInference("bert-base").provision = 1;
  auto& w = s.AddClosedLoop(0, 2, Ms(20), Sec(10));
  w.warmup = Sec(1);
  s.chaos().FailGpu(Sec(3), 0);
  s.RunFor(Sec(12));
  Experiment exp(std::move(s));
  const ExperimentResult r = exp.Run();
  // Clients served before the fault and kept issuing after it: the
  // drop hook is their completion signal, so the loop never wedges.
  EXPECT_GT(r.functions[0].completed, 0);
  EXPECT_GT(r.functions[0].dropped, 0);
  EXPECT_LT(r.functions[0].availability_percent, 100.0);
}

TEST(ExperimentDriver, SurgeOnClosedLoopFnDoesNotSpawnPhantomClients)
{
  // Only requests the closed loop issued continue it: a chaos surge's
  // completions/drops on the same function must not multiply the
  // client pool (pre-fix this inflated throughput ~40x and the extra
  // clients outlived the surge window).
  auto completed = [](bool with_surge) {
    ExperimentSpec s("closed_surge");
    s.cluster().nodes = 1;
    s.AddInference("bert-base").provision = 1;
    s.AddClosedLoop(0, 2, Ms(50), Sec(20));
    if (with_surge) s.chaos().Surge(Sec(5), 0, 100.0, Sec(2));
    s.RunFor(Sec(22));
    Experiment exp(std::move(s));
    return exp.Run().functions[0].completed;
  };
  const std::int64_t base = completed(false);
  const std::int64_t surged = completed(true);
  EXPECT_GT(base, 0);
  // The surge itself adds ~200 requests (100 rps for 2 s); anything
  // far beyond that means phantom clients kept issuing.
  EXPECT_LT(surged, base + 600);
}

TEST(ExperimentDriver, ExportPrefixWritesTraceCsvs)
{
  ExperimentSpec s("exported");
  s.cluster().nodes = 1;
  s.AddInference("bert-base").provision = 1;
  s.AddPoisson(0, 10.0, Sec(3));
  s.chaos().FailGpu(Sec(1), 0);
  s.RunFor(Sec(5));
  s.ExportTo("/tmp/dilu_experiment_test");
  Experiment exp(std::move(s));
  exp.Run();
  for (const char* suffix : {"_samples.csv", "_functions.csv",
                             "_faults.csv"}) {
    const std::string path = std::string("/tmp/dilu_experiment_test")
        + suffix;
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    f.close();
    std::remove(path.c_str());
  }
}

TEST(ExperimentDriver, CheckpointSaveCostSurfacesInResult)
{
  ExperimentSpec s("ckpt");
  s.cluster().nodes = 1;
  auto& t = s.AddTraining("bert-base", 1, 2000000);
  t.fn.checkpoint_every = Sec(2);
  t.fn.checkpoint_save_cost = Ms(250);
  s.RunFor(Sec(15));
  Experiment exp(std::move(s));
  const ExperimentResult r = exp.Run();
  ASSERT_EQ(r.functions.size(), 1u);
  EXPECT_GT(r.functions[0].checkpoints, 0);
  EXPECT_DOUBLE_EQ(r.functions[0].checkpoint_pause_s,
                   0.25 * r.functions[0].checkpoints);
  EXPECT_GT(r.functions[0].iterations, 0);
}

}  // namespace
}  // namespace dilu
