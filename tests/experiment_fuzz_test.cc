/**
 * @file
 * Fuzz-style tests for the experiment text loader, mirroring
 * scenario_fuzz_test.cc: randomly generated valid specs must round-trip
 * parse -> print -> parse byte-identically, and randomly mutated specs
 * must fail with a line-numbered error — never crash, never be
 * silently mis-parsed. The generator draws every directive, every key
 * of every line (cluster, storage, nic, both deploy task types incl.
 * `priority=` and `on=` pins that fit the fleet, all seven arrival
 * kinds) and all fifteen chaos verbs, each fn-targeted verb aimed at a
 * deploy of the task type it requires.
 *
 * The run-fuzz also *runs* generated specs, horizon capped and exports
 * cleared: every shard audits its fleet (fabric included) every 500 ms,
 * the audited report must equal an unaudited rerun byte for byte, and
 * a two-shard run must audit clean too (pinned specs run on one shard
 * only, so they skip it).
 *
 * Everything draws from a fixed-seed Rng, so a failure reproduces
 * exactly; crank kRounds locally for a longer soak.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "experiment/experiment.h"
#include "experiment/experiment_spec.h"
#include "invariant_audit.h"
#include "models/model_catalog.h"

namespace dilu {
namespace {

using experiment::ArrivalKind;
using experiment::DeploySpec;
using experiment::ExperimentSpec;
using experiment::FabricSection;
using experiment::WorkloadSpec;

constexpr int kRounds = 150;
/** Generated specs the run-fuzz executes (three runs each). */
constexpr int kRunRounds = 200;

TimeUs
RandomTime(Rng& rng)
{
  // Mix of exact-second, exact-millisecond and raw-microsecond times so
  // every FormatTime suffix branch is exercised.
  switch (rng.UniformInt(0, 2)) {
    case 0: return Sec(rng.UniformInt(1, 500));
    case 1: return Ms(rng.UniformInt(1, 500000));
    default: return Us(rng.UniformInt(1, 5000000));
  }
}

/** Magnitudes that %g prints exactly (quarter steps). */
double
RandomFactor(Rng& rng, double lo, double hi)
{
  const double steps = (hi - lo) * 4.0;
  return lo
      + 0.25 * static_cast<double>(
            rng.UniformInt(1, static_cast<std::int64_t>(steps) - 1));
}

const char* const kInferenceModels[] = {"bert-base", "roberta-large",
                                        "resnet152", "llama2-7b"};
const char* const kTrainingModels[] = {"bert-base", "vgg19",
                                       "gpt2-large"};

ExperimentSpec
RandomSpec(Rng& rng)
{
  ExperimentSpec spec("fuzz" + std::to_string(rng.UniformInt(0, 999)));

  // --- cluster overrides (each independently present) ---
  if (rng.UniformInt(0, 1) == 0) {
    spec.cluster().nodes = static_cast<int>(rng.UniformInt(1, 8));
  }
  if (rng.UniformInt(0, 2) == 0) {
    spec.cluster().gpus_per_node = static_cast<int>(rng.UniformInt(1, 8));
  }
  if (rng.UniformInt(0, 2) == 0) {
    const auto preset = static_cast<std::size_t>(
        rng.UniformInt(0, std::size(cluster::kPresets) - 1));
    spec.cluster().preset = cluster::kPresets[preset].name;
  }
  if (rng.UniformInt(0, 2) == 0) {
    const char* schedulers[] = {"dilu", "exclusive", "static"};
    spec.cluster().scheduler = schedulers[rng.UniformInt(0, 2)];
  }
  if (rng.UniformInt(0, 2) == 0) {
    const char* sharings[] = {"dilu", "static", "tgs", "fastgs"};
    spec.cluster().sharing = sharings[rng.UniformInt(0, 3)];
  }
  if (rng.UniformInt(0, 2) == 0) {
    const char* modes[] = {"dilu", "limit", "request", "full"};
    spec.cluster().quota_mode = modes[rng.UniformInt(0, 3)];
  }
  if (rng.UniformInt(0, 2) == 0) {
    spec.cluster().recovery =
        rng.UniformInt(0, 1) == 0 ? "joint" : "greedy";
  }
  if (rng.UniformInt(0, 2) == 0) {
    spec.cluster().resource_complementarity = rng.UniformInt(0, 1) == 0;
  }
  if (rng.UniformInt(0, 2) == 0) {
    spec.cluster().workload_affinity = rng.UniformInt(0, 1) == 0;
  }
  if (rng.UniformInt(0, 2) == 0) {
    spec.cluster().warm_starts = rng.UniformInt(0, 1) == 0;
  }
  if (rng.UniformInt(0, 1) == 0) {
    spec.cluster().seed =
        static_cast<std::uint64_t>(rng.UniformInt(0, 1 << 20));
  }

  // --- fabric tiers (each line, and each of its keys, optional) ---
  FabricSection& fabric = spec.fabric();
  if (rng.UniformInt(0, 2) == 0) {
    fabric.storage = true;
    if (rng.UniformInt(0, 1) == 0) {
      fabric.storage_bw = RandomFactor(rng, 0, 16);
    }
    if (rng.UniformInt(0, 1) == 0) {
      fabric.storage_gc = 0.25 * static_cast<double>(rng.UniformInt(0, 3));
    }
    if (rng.UniformInt(0, 1) == 0) {
      fabric.storage_devices = static_cast<int>(rng.UniformInt(1, 4));
    }
  }
  if (rng.UniformInt(0, 2) == 0) {
    fabric.nic = true;
    if (rng.UniformInt(0, 1) == 0) fabric.nic_rate = RandomFactor(rng, 0, 50);
    if (rng.UniformInt(0, 1) == 0) fabric.nic_burst = RandomFactor(rng, 0, 4);
  }

  // --- deployments ---
  // Pins (`on=`) pick distinct fleet GPUs with memory to spare, in
  // deploy order like the loader's check.
  const cluster::ClusterConfig pin_fleet =
      experiment::BuildClusterConfig(spec.cluster(), spec.fabric());
  const std::int64_t fleet_gpus =
      std::int64_t{pin_fleet.nodes} * pin_fleet.gpus_per_node;
  std::vector<double> pinned_gb(static_cast<std::size_t>(fleet_gpus), 0.0);
  const auto maybe_pin = [&](DeploySpec& d, int units) {
    if (rng.UniformInt(0, 3) != 0 || units > fleet_gpus) return;
    const models::ModelProfile& m = models::GetModel(d.fn.model);
    const double mem_gb = d.fn.type == TaskType::kTraining
        ? m.mem_gb_training
        : m.mem_gb_inference / units;
    std::vector<GpuId> on;
    while (static_cast<int>(on.size()) < units) {
      const auto gpu = static_cast<GpuId>(rng.UniformInt(0, fleet_gpus - 1));
      if (std::find(on.begin(), on.end(), gpu) == on.end()) on.push_back(gpu);
    }
    for (const GpuId gpu : on) {
      if (pinned_gb[static_cast<std::size_t>(gpu)] + mem_gb
          > cluster::kGpuMemoryGb) {
        return;
      }
    }
    for (const GpuId gpu : on) {
      pinned_gb[static_cast<std::size_t>(gpu)] += mem_gb;
    }
    d.on = std::move(on);
  };
  const int deploys = static_cast<int>(rng.UniformInt(1, 4));
  std::vector<int> inference_fns;
  std::vector<int> training_fns;
  for (int i = 0; i < deploys; ++i) {
    if (rng.UniformInt(0, 3) == 0) {
      DeploySpec& d = spec.AddTraining(
          kTrainingModels[rng.UniformInt(0, 2)],
          static_cast<int>(rng.UniformInt(1, 4)),
          rng.UniformInt(0, 1) == 0 ? 0 : rng.UniformInt(1, 1000));
      if (rng.UniformInt(0, 1) == 0) d.start = RandomTime(rng);
      if (rng.UniformInt(0, 1) == 0) {
        d.fn.checkpoint_every = RandomTime(rng);
        if (rng.UniformInt(0, 1) == 0) {
          d.fn.checkpoint_save_cost = RandomTime(rng);
        }
      }
      if (rng.UniformInt(0, 3) == 0) {
        d.fn.priority = static_cast<int>(rng.UniformInt(0, 2));
      }
      if (d.start == 0) maybe_pin(d, d.fn.workers);
      training_fns.push_back(i);
    } else {
      DeploySpec& d =
          spec.AddInference(kInferenceModels[rng.UniformInt(0, 3)]);
      d.provision = static_cast<int>(rng.UniformInt(0, 3));
      if (rng.UniformInt(0, 1) == 0) {
        const char* scalers[] = {"dilu-lazy", "eager", "keep-alive"};
        d.scaler = scalers[rng.UniformInt(0, 2)];
      }
      if (rng.UniformInt(0, 2) == 0) {
        d.fn.shards = static_cast<int>(rng.UniformInt(2, 4));
      }
      if (rng.UniformInt(0, 3) == 0) {
        d.fn.name = "fn" + std::to_string(i);
      }
      if (rng.UniformInt(0, 2) == 0) {
        d.fn.admission_class = rng.UniformInt(0, 1) == 0
                                   ? ServiceClass::kCritical
                                   : ServiceClass::kBestEffort;
      }
      if (rng.UniformInt(0, 2) == 0) {
        d.fn.queue_cap = static_cast<int>(rng.UniformInt(1, 256));
      }
      if (rng.UniformInt(0, 2) == 0) {
        d.fn.retry_budget = static_cast<int>(rng.UniformInt(1, 4));
      }
      if (rng.UniformInt(0, 2) == 0) d.fn.retry_backoff = RandomTime(rng);
      if (rng.UniformInt(0, 2) == 0) d.fn.deadline = RandomTime(rng);
      if (rng.UniformInt(0, 3) == 0) {
        d.fn.priority = static_cast<int>(rng.UniformInt(0, 2));
      }
      if (d.provision == 0) maybe_pin(d, d.fn.shards);
      inference_fns.push_back(i);
    }
  }

  // --- workloads: at most one per inference fn (closed-loop fns must
  // not carry a second stream, and one-per-fn keeps generation simple).
  for (int fn : inference_fns) {
    if (rng.UniformInt(0, 2) == 2) continue;
    const TimeUs duration = RandomTime(rng);
    WorkloadSpec* w = nullptr;
    switch (rng.UniformInt(0, 6)) {
      case 0:
        w = &spec.AddConstant(fn, RandomFactor(rng, 0.0, 100.0), duration);
        break;
      case 1:
        w = &spec.AddPoisson(fn, RandomFactor(rng, 0.0, 100.0), duration);
        break;
      case 2:
        w = &spec.AddGamma(fn, RandomFactor(rng, 0.0, 100.0),
                           RandomFactor(rng, 0.0, 8.0), duration);
        break;
      case 3: {
        w = &spec.AddTrace(fn, ArrivalKind::kBursty,
                           RandomFactor(rng, 0.0, 100.0), duration);
        if (rng.UniformInt(0, 1) == 0) {
          w->scale = RandomFactor(rng, 1.0, 8.0);
          w->burst_len = RandomTime(rng);
          w->burst_gap = RandomTime(rng);
        }
        break;
      }
      case 4: {
        w = &spec.AddTrace(fn, ArrivalKind::kPeriodic,
                           RandomFactor(rng, 0.0, 100.0), duration);
        if (rng.UniformInt(0, 1) == 0) {
          w->amplitude = 0.25 * static_cast<double>(rng.UniformInt(1, 4));
          w->period = RandomTime(rng);
        }
        break;
      }
      case 5: {
        w = &spec.AddTrace(fn, ArrivalKind::kSporadic,
                           RandomFactor(rng, 0.0, 100.0), duration);
        if (rng.UniformInt(0, 1) == 0) {
          w->active = 0.25 * static_cast<double>(rng.UniformInt(1, 4));
          w->spike = RandomTime(rng);
        }
        break;
      }
      default:
        w = &spec.AddClosedLoop(fn,
                                static_cast<int>(rng.UniformInt(1, 16)),
                                RandomTime(rng), duration);
        break;
    }
    if (rng.UniformInt(0, 1) == 0) w->start = RandomTime(rng);
    if (rng.UniformInt(0, 1) == 0) w->warmup = RandomTime(rng);
    if (rng.UniformInt(0, 2) == 0) {
      w->seed = static_cast<std::uint64_t>(rng.UniformInt(0, 1 << 20));
    }
  }

  // --- chaos events: every verb; fn-targeted ones name a deploy of the
  // task type they require, fabric ones only run with a fabric line,
  // and GPU / node targets lie inside the generated fleet.
  const cluster::ClusterConfig fleet =
      experiment::BuildClusterConfig(spec.cluster(), spec.fabric());
  const auto pick = [&rng](const std::vector<int>& fns) {
    return fns[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(fns.size()) - 1))];
  };
  chaos::ScenarioSpec& chaos = spec.chaos();
  const int events = static_cast<int>(rng.UniformInt(0, 8));
  for (int i = 0; i < events; ++i) {
    const TimeUs at = RandomTime(rng);
    const std::int64_t draw = rng.UniformInt(0, 15);
    const auto gpu = static_cast<std::int32_t>(
        draw % (std::int64_t{fleet.nodes} * fleet.gpus_per_node));
    const auto node = static_cast<std::int32_t>(draw % fleet.nodes);
    switch (rng.UniformInt(0, 14)) {
      case 0: chaos.FailGpu(at, gpu); break;
      case 1: chaos.RecoverGpu(at, gpu); break;
      case 2: chaos.FailNode(at, node); break;
      case 3: chaos.RecoverNode(at, node); break;
      case 4: chaos.DrainNode(at, node); break;
      case 5: chaos.UndrainNode(at, node); break;
      case 6:
        chaos.DegradeGpu(at, gpu,
                         0.25 * static_cast<double>(rng.UniformInt(1, 3)));
        break;
      case 7:
        chaos.StraggleGpu(at, gpu, RandomFactor(rng, 1.0, 8.0));
        break;
      case 8:
        if (!training_fns.empty()) {
          chaos.CheckpointEvery(
              at, pick(training_fns), RandomTime(rng),
              rng.UniformInt(0, 1) == 0 ? 0 : RandomTime(rng));
        }
        break;
      case 9:
        chaos.InflateColdStarts(at, RandomFactor(rng, 0.0, 10.0),
                                RandomTime(rng));
        break;
      case 10:
        if (!inference_fns.empty()) {
          chaos.Surge(at, pick(inference_fns), RandomFactor(rng, 0.0, 200.0),
                      RandomTime(rng));
        }
        break;
      case 11:
        if (!inference_fns.empty()) {
          chaos.Overload(at, pick(inference_fns),
                         RandomFactor(rng, 1.0, 16.0), RandomTime(rng));
        }
        break;
      case 12:
        if (!inference_fns.empty()) {
          chaos.ThrottleAdmit(at, pick(inference_fns),
                              RandomFactor(rng, 0.0, 500.0),
                              RandomTime(rng));
        }
        break;
      case 13:
        if (fabric.enabled()) chaos.FailLink(at, node, RandomTime(rng));
        break;
      default:
        if (fabric.enabled()) {
          chaos.StorageBrownout(at, RandomFactor(rng, 1.0, 8.0),
                                RandomTime(rng));
        }
        break;
    }
  }

  if (rng.UniformInt(0, 1) == 0) spec.RunFor(RandomTime(rng));
  if (rng.UniformInt(0, 2) == 0) spec.ExportTo("/tmp/dilu_fuzz_export");
  return spec;
}

TEST(ExperimentFuzz, RandomValidSpecsRoundTripByteIdentically)
{
  Rng rng(0xE0331u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const ExperimentSpec spec = RandomSpec(rng);
    const std::string text = spec.ToText();

    ExperimentSpec parsed;
    std::string error;
    ASSERT_TRUE(ExperimentSpec::Parse(text, &parsed, &error))
        << error << "\n" << text;
    EXPECT_EQ(parsed.ToText(), text);
    EXPECT_EQ(parsed.deploys().size(), spec.deploys().size());
    EXPECT_EQ(parsed.workloads().size(), spec.workloads().size());
    EXPECT_EQ(parsed.chaos().events().size(), spec.chaos().events().size());
    EXPECT_EQ(parsed.run_for(), spec.run_for());
  }
}

TEST(ExperimentFuzz, RandomByteMutationsNeverCrashTheParser)
{
  Rng rng(0xE0332u);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789 =_.-x#\t";
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string text = RandomSpec(rng).ToText();
    const int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(text.size()) - 1));
      const char c = charset[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(charset.size()) - 1))];
      switch (rng.UniformInt(0, 2)) {
        case 0: text[pos] = c; break;           // substitute
        case 1: text.erase(pos, 1); break;      // delete
        default: text.insert(pos, 1, c); break; // insert
      }
    }
    // The contract under mutation: parse either succeeds (the mutation
    // kept the spec grammatical) or fails with a line-numbered message
    // and leaves `out` untouched. It must never crash or throw.
    ExperimentSpec out("sentinel");
    out.AddInference("bert-base");
    std::string error;
    const bool ok = ExperimentSpec::Parse(text, &out, &error);
    if (ok) {
      EXPECT_NE(out.name(), "sentinel") << "out not written on success";
    } else {
      EXPECT_NE(error.find("line "), std::string::npos)
          << "error lacks a line number: " << error;
      ASSERT_EQ(out.deploys().size(), 1u)
          << "out must be untouched on failure";
      EXPECT_EQ(out.name(), "sentinel");
    }
  }
}

TEST(ExperimentFuzz, TargetedCorruptionsAlwaysError)
{
  Rng rng(0xE0333u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string text = RandomSpec(rng).ToText();
    switch (rng.UniformInt(0, 4)) {
      case 0:  // unknown directive
        text += "explode everything\n";
        break;
      case 1:  // dangling fn reference
        text += "workload fn=99 poisson rps=5 for 5s\n";
        break;
      case 2:  // bad time unit
        text += "run for 10q\n";
        break;
      case 3:  // a GPU past the fleet (at most 8 nodes x 8 GPUs)
        text += "chaos at 1s fail_gpu 64\n";
        break;
      default:  // unknown deploy key
        text += "deploy model=bert-base warp=9\n";
        break;
    }
    std::string error;
    EXPECT_FALSE(ExperimentSpec::Parse(text, nullptr, &error)) << text;
    EXPECT_NE(error.find("line "), std::string::npos) << error;
  }
}

/** One shard's cross-layer invariants (fabric included), right now. */
void
AuditShard(cluster::ClusterRuntime& rt)
{
  SCOPED_TRACE(::testing::Message() << "at " << rt.now() << "us");
  testing::AuditFleet(rt.state(), rt);
}

/**
 * Runs `spec` on `shards` shards (one thread) and returns the report
 * JSON. With `audit`, every shard audits itself every 500 ms of its own
 * clock and once more at the horizon; `*audits` counts the periodic
 * ones.
 */
std::string
RunJson(const ExperimentSpec& spec, int shards, bool audit, int* audits)
{
  experiment::Experiment exp(spec, {}, experiment::ShardOptions{shards, 1});
  if (audit) {
    for (int s = 0; s < exp.shard_count(); ++s) {
      cluster::ClusterRuntime& rt = exp.runtime(s);
      rt.simulation().SchedulePeriodic(Ms(500), Ms(500), [&rt, audits] {
        ++*audits;
        if (!::testing::Test::HasFailure()) AuditShard(rt);
      });
    }
    exp.set_barrier_probe([&exp](TimeUs) {
      for (int s = 0; s < exp.shard_count(); ++s) AuditShard(exp.runtime(s));
    });
  }
  return exp.Run().ToJson();
}

TEST(ExperimentFuzz, RandomSpecsRunAuditCleanAndReplay)
{
  Rng rng(0xE0334u);
  for (int round = 0; round < kRunRounds && !HasFailure(); ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ExperimentSpec spec = RandomSpec(rng);
    spec.RunFor(std::min(spec.EffectiveRunFor(), Sec(40)));
    spec.ExportTo("");
    SCOPED_TRACE(spec.ToText());

    const int ticks = static_cast<int>(spec.run_for() / Ms(500));
    int audits = 0;
    const std::string audited = RunJson(spec, 1, /*audit=*/true, &audits);
    EXPECT_GE(audits, ticks) << "the audit must fire every 500 ms";
    EXPECT_EQ(RunJson(spec, 1, /*audit=*/false, nullptr), audited)
        << "auditing must not perturb the run";

    if (spec.pinned()) continue;  // pins name whole-fleet GPUs
    audits = 0;
    RunJson(spec, 2, /*audit=*/true, &audits);
    EXPECT_GE(audits, ticks) << "every shard must audit every 500 ms";
  }
}

}  // namespace
}  // namespace dilu
