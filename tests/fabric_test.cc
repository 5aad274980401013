/**
 * @file
 * Fabric-layer tests (docs/FABRIC.md): token-bucket conformance, GC
 * duty-cycle accounting, FIFO frontier queueing, brownout and link-
 * failure semantics, two-run byte-identical determinism, checkpoint-
 * pause monotonicity under growing contention, the recovery retry
 * cadence in the audit log, and the end-to-end golden run of
 * experiments/fabric_contention.exp.
 *
 * The golden comparison regenerates with:
 *
 *   DILU_REGEN_GOLDEN=1 ./tests/fabric_test
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "fabric/fabric.h"
#include "invariant_audit.h"

namespace dilu {
namespace {

using fabric::FabricConfig;
using fabric::FabricPlane;
using fabric::TokenBucket;
using fabric::TransferResult;

#ifndef DILU_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DILU_GOLDEN_DIR"
#endif
#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif

// --- token-bucket conformance ----------------------------------------

TEST(TokenBucket, BurstIsInstantThenRateLimits)
{
  TokenBucket tb(/*rate_gbps=*/10.0, /*burst_gb=*/0.05);
  // The bucket starts full: a burst-sized acquire is credited now.
  EXPECT_EQ(tb.Acquire(0.05, Us(1000)), Us(1000));
  // Empty bucket: 0.1 GB at 10 GB/s waits exactly 10 ms.
  EXPECT_EQ(tb.Acquire(0.1, Us(1000)), Us(1000) + Ms(10));
}

/**
 * Conformance property: whatever the acquire pattern, the cumulative
 * GB credited by time t never exceeds burst + rate * t (the defining
 * envelope of a token bucket). Fixed-seed Rng, so a failure reproduces.
 */
TEST(TokenBucket, RandomAcquiresNeverBeatTheEnvelope)
{
  Rng rng(0xFAB1u);
  const double rate = 5.0;
  const double burst = 0.02;
  TokenBucket tb(rate, burst);
  TimeUs now = 0;
  double granted = 0.0;
  for (int i = 0; i < 2000; ++i) {
    now += static_cast<TimeUs>(rng.UniformInt(0, 5000));
    const double gb = rng.Uniform(1e-4, 0.03);
    const TimeUs ready = tb.Acquire(gb, now);
    ASSERT_GE(ready, now);
    granted += gb;
    // Rounding the deficit wait to whole microseconds can under-shoot
    // by at most one tick's worth of tokens.
    const double envelope = burst + rate * ToSec(ready) + rate * 1e-6;
    ASSERT_LE(granted, envelope + 1e-9)
        << "acquire " << i << " beat the token-bucket envelope";
    now = std::max(now, ready);
  }
}

// --- storage tier: GC accounting, FIFO, brownout ---------------------

FabricConfig
StorageConfig(double bw, double duty)
{
  FabricConfig cfg;
  cfg.enabled = true;
  cfg.storage_bw_gbps = bw;
  cfg.storage_gc_duty = duty;
  return cfg;
}

TEST(Storage, NoGcServiceIsExactlyBandwidthLimited)
{
  FabricPlane fp(StorageConfig(2.0, 0.0), 2, 1);
  const TransferResult r = fp.SubmitStorage(0, 1.0, Us(500));
  EXPECT_EQ(r.start, Us(500));
  EXPECT_EQ(r.done - r.start, Sec(1) / 2);  // 1 GB at 2 GB/s
  EXPECT_EQ(r.stall, 0);
  EXPECT_FALSE(fp.lower_bound_violated());
}

TEST(Storage, FractionalServiceRoundsUpSoNoWriteBeatsTheRate)
{
  // 1 GB at 3 GB/s is 333333.3 us of service: the write occupies the
  // device for 333334 us, never the 333333 that would move 1 GB faster
  // than 3 GB/s.
  FabricPlane fp(StorageConfig(3.0, 0.0), 1, 1);
  const TransferResult r = fp.SubmitStorage(0, 1.0, 0);
  EXPECT_EQ(r.done - r.start, 333334);
  EXPECT_GE(3.0 * ToSec(r.done - r.start), 1.0);
  EXPECT_FALSE(fp.lower_bound_violated());
}

TEST(Storage, GcDutyCycleAccountingIsClosedForm)
{
  // 1 GB at 1 GB/s needs 1000 ms of service. GC owns the first 50 ms
  // of every 200 ms period (fabric::kStorageGcPeriod), so service
  // starts at 50 ms and proceeds in 150 ms regions:
  // 150 + 5*150 + 100 = 1000 ms of service spread over GC windows
  // lands the write at exactly 1350 ms.
  static_assert(fabric::kStorageGcPeriod == Ms(200));
  FabricPlane fp(StorageConfig(1.0, 0.25), 1, 1);
  const TransferResult r = fp.SubmitStorage(0, 1.0, 0);
  EXPECT_EQ(r.start, 0);
  EXPECT_EQ(r.done, Ms(1350));
  EXPECT_FALSE(fp.lower_bound_violated());
}

TEST(Storage, FifoQueueStretchesConcurrentWrites)
{
  FabricPlane fp(StorageConfig(2.0, 0.0), 2, 1);
  const TimeUs svc = Sec(1) / 2;  // 1 GB at 2 GB/s
  TimeUs prev_done = 0;
  for (int k = 0; k < 8; ++k) {
    const TransferResult r = fp.SubmitStorage(0, 1.0, 0);
    EXPECT_EQ(r.start, prev_done) << "write " << k;
    EXPECT_EQ(r.done, prev_done + svc);
    EXPECT_EQ(r.stall, prev_done);  // the k-th write waits k services
    prev_done = r.done;
  }
  EXPECT_EQ(fp.StorageBacklogUs(0), 8 * svc);
  EXPECT_EQ(fp.StorageBacklogUs(8 * svc), 0);
  EXPECT_EQ(fp.totals().storage_transfers, 8);
  EXPECT_DOUBLE_EQ(fp.totals().storage_gb, 8.0);
}

TEST(Storage, BrownoutStretchesOnlyWindowedSubmissions)
{
  FabricPlane fp(StorageConfig(2.0, 0.0), 1, 1);
  fp.SetStorageBrownout(3.0);
  const TransferResult slow = fp.SubmitStorage(0, 1.0, 0);
  EXPECT_EQ(slow.done - slow.start, 3 * (Sec(1) / 2));
  fp.SetStorageBrownout(1.0);
  const TransferResult fast = fp.SubmitStorage(0, 1.0, slow.done);
  EXPECT_EQ(fast.done - fast.start, Sec(1) / 2);
  // Restoring can never speed the device beyond nominal.
  fp.SetStorageBrownout(0.25);
  EXPECT_DOUBLE_EQ(fp.storage_brownout(), 1.0);
}

// --- network tier: loopback, store-and-forward, link failure ---------

TEST(Network, LoopbackPaysOnlyThePostingCost)
{
  FabricConfig cfg;
  cfg.enabled = true;
  FabricPlane fp(cfg, 2, 1);
  const TransferResult r = fp.SubmitNetwork(0, 0, 4.0, Us(100));
  EXPECT_GE(r.done, Us(100) + fabric::kPostCost);
  EXPECT_LE(r.done, Us(100) + fabric::kPostCost + fabric::kPostCost / 4);
  EXPECT_EQ(r.stall, 0);
}

TEST(Network, StoreAndForwardRespectsTheBandwidthLowerBound)
{
  FabricConfig cfg;
  cfg.enabled = true;
  FabricPlane fp(cfg, 2, 1);
  const TimeUs hop = static_cast<TimeUs>(1.0 / cfg.nic_rate_gbps * 1e6);
  const TimeUs core = static_cast<TimeUs>(1.0 / fabric::kCoreGbps * 1e6);
  const TransferResult r = fp.SubmitNetwork(0, 1, 1.0, Us(1000));
  // Uplink + core + downlink serialization is the floor; the token
  // bucket and posting cost only push completion later.
  EXPECT_GE(r.done, Us(1000) + fabric::kPostCost + 2 * hop + core);
  EXPECT_FALSE(fp.lower_bound_violated());
  EXPECT_EQ(fp.totals().network_transfers, 1);
  EXPECT_DOUBLE_EQ(fp.totals().network_gb, 1.0);
}

TEST(Network, FractionalHopsRoundUpSoNoTransferBeatsTheRate)
{
  FabricConfig cfg;
  cfg.enabled = true;
  cfg.nic_rate_gbps = 3.0;
  FabricPlane fp(cfg, 2, 1);
  const TransferResult r = fp.SubmitNetwork(0, 1, 1.0, 0);
  // The flight's downlink hop carries 1 GB at 3 GB/s: 333334 us.
  EXPECT_EQ(r.done - r.start, 333334);
  EXPECT_GE(cfg.nic_rate_gbps * ToSec(r.done - r.start), 1.0);
  testing::AuditFabric(fp, r.start);
}

TEST(Network, FailedLinkParksTransfersUntilTheOutageEnds)
{
  FabricConfig cfg;
  cfg.enabled = true;
  FabricPlane fp(cfg, 2, 1);
  fp.FailLink(0, Ms(500));
  EXPECT_EQ(fp.link_down_until(0), Ms(500));
  EXPECT_GT(fp.NetworkBacklogUs(0, Ms(100)), 0);
  const TransferResult r = fp.SubmitNetwork(0, 1, 0.01, Ms(100));
  EXPECT_GE(r.start, Ms(500));  // rides out the outage
  EXPECT_GT(r.stall, 0);
  EXPECT_EQ(fp.NetworkBacklogUs(1, r.done), 0);
}

// --- determinism & the conservation audit ----------------------------

TEST(Fabric, IdenticalSeedsReplayByteIdentically)
{
  FabricConfig cfg;
  cfg.enabled = true;
  FabricPlane a(cfg, 4, 0xD11Du);
  FabricPlane b(cfg, 4, 0xD11Du);
  Rng rng(99);
  TimeUs now = 0;
  for (int i = 0; i < 500; ++i) {
    now += static_cast<TimeUs>(rng.UniformInt(0, 2000));
    const double gb = rng.Uniform(0.01, 2.0);
    const NodeId src = static_cast<NodeId>(rng.UniformInt(0, 3));
    const NodeId dst = static_cast<NodeId>(rng.UniformInt(0, 4));
    if (i % 3 == 0) {
      const TransferResult ra = a.SubmitStorage(src, gb, now);
      const TransferResult rb = b.SubmitStorage(src, gb, now);
      ASSERT_EQ(ra.done, rb.done);
      ASSERT_EQ(ra.stall, rb.stall);
    } else {
      const TransferResult ra = a.SubmitNetwork(src, dst, gb, now);
      const TransferResult rb = b.SubmitNetwork(src, dst, gb, now);
      ASSERT_EQ(ra.done, rb.done);
      ASSERT_EQ(ra.stall, rb.stall);
    }
    // The conservation invariant holds mid-flight at every instant.
    testing::AuditFabric(a, now);
  }
  EXPECT_EQ(a.totals().storage_transfers, b.totals().storage_transfers);
  EXPECT_EQ(a.totals().network_transfers, b.totals().network_transfers);
  EXPECT_DOUBLE_EQ(a.totals().storage_gb, b.totals().storage_gb);
  EXPECT_DOUBLE_EQ(a.totals().network_gb, b.totals().network_gb);
  EXPECT_EQ(a.totals().stall_us, b.totals().stall_us);
}

// --- emergent checkpoint pauses under growing contention -------------

/**
 * Runs `jobs` identical single-worker vgg19 jobs that all checkpoint
 * through the shared storage device and returns the worst per-function
 * checkpoint pause. FIFO queueing makes the last job in line wait for
 * every snapshot ahead of it.
 */
double
WorstCheckpointPause(int jobs)
{
  experiment::ExperimentSpec spec("mono");
  spec.cluster().nodes = 2;
  spec.cluster().seed = 7;
  spec.fabric().storage = true;
  spec.fabric().storage_bw = 2.0;
  spec.fabric().storage_gc = 0.0;
  for (int i = 0; i < jobs; ++i) {
    experiment::DeploySpec& d = spec.AddTraining("vgg19", 1);
    d.fn.checkpoint_every = Sec(10);
  }
  spec.RunFor(Sec(25));
  experiment::Experiment exp(std::move(spec));
  const experiment::ExperimentResult r = exp.Run();
  double worst = 0.0;
  for (const experiment::FunctionResult& f : r.functions) {
    EXPECT_GE(f.checkpoints, 1) << "job never checkpointed";
    worst = std::max(worst, f.checkpoint_pause_s);
  }
  testing::AuditFleet(exp.runtime().state(), exp.runtime());
  return worst;
}

TEST(FabricContention, CheckpointPauseGrowsWithConcurrentCheckpointers)
{
  const double p1 = WorstCheckpointPause(1);
  const double p2 = WorstCheckpointPause(2);
  const double p4 = WorstCheckpointPause(4);
  const double p8 = WorstCheckpointPause(8);
  // Uncontended floor: 1.65 GB (vgg19 params x3) at 2 GB/s.
  EXPECT_GE(p1, 0.8);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p4);
  EXPECT_LT(p4, p8);
  EXPECT_GT(p8, 2.0 * p1) << "eight checkpointers should visibly "
                             "stretch the worst pause";
}

// --- the recovery retry cadence (fault audit log) --------------------

TEST(RecoveryRetry, CadenceAppearsInTheStarvedAuditRecord)
{
  cluster::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 1;
  cluster::ClusterRuntime rt(cfg);
  core::FunctionSpec spec;
  spec.model = "bert-base";
  const FunctionId fn = rt.Deploy(spec);
  ASSERT_NE(rt.LaunchInference(fn, /*cold=*/false), kInvalidInstance);

  // The only GPU dies and never heals: recovery has nowhere to go, the
  // backoff escalates from its 1 s base and saturates at base << 5
  // (within 1 + 1.25 * (2 + 4 + 8 + 16 + 32) = 78.5 s), and the
  // starvation record pins the escalated cadence.
  rt.FailGpu(0);
  rt.RunFor(Sec(120));

  bool starved = false;
  for (const cluster::FaultRecord& f : rt.metrics().faults()) {
    if (f.kind != "recovery_starved") continue;
    starved = true;
    EXPECT_NE(f.detail.find("retry_s=32.0"), std::string::npos)
        << "starved record must carry the escalated retry cadence, "
           "got: " << f.detail;
  }
  EXPECT_TRUE(starved) << "backoff saturation never reported";
}

// --- the checked-in fabric_contention experiment ---------------------

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream f(path, std::ios::binary);
  std::stringstream out;
  out << f.rdbuf();
  return out.str();
}

experiment::ExperimentSpec
LoadFabricContentionSpec()
{
  const std::string text = ReadFileOrEmpty(
      std::string(DILU_EXPERIMENTS_DIR) + "/fabric_contention.exp");
  EXPECT_FALSE(text.empty());
  experiment::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
      << error;
  return spec;
}

TEST(FabricGolden, ContentionExperimentIsDeterministicAndMeasured)
{
  experiment::RunOptions opts;
  opts.seed = 1;  // the CI smoke's invocation: dilu_run --seed 1

  experiment::Experiment run1(LoadFabricContentionSpec(), opts);
  const experiment::ExperimentResult r1 = run1.Run();
  // Full fleet audit, including the fabric conservation invariants.
  testing::AuditFleet(run1.runtime().state(), run1.runtime());

  experiment::Experiment run2(LoadFabricContentionSpec(), opts);
  const experiment::ExperimentResult r2 = run2.Run();
  EXPECT_EQ(r1.ToJson(), r2.ToJson())
      << "two seeded runs must serialize byte-identically";

  // Every job checkpointed through the shared device; the fleet-wide
  // mean pause per save sits well above the 0.83 s uncontended floor,
  // i.e. the jobs visibly stretch each other.
  ASSERT_EQ(r1.functions.size(), 8u);
  double pause_s = 0.0;
  int checkpoints = 0;
  for (const experiment::FunctionResult& f : r1.functions) {
    EXPECT_GE(f.checkpoints, 2) << f.name;
    EXPECT_GT(f.checkpoint_pause_s, 0.8 * f.checkpoints) << f.name;
    pause_s += f.checkpoint_pause_s;
    checkpoints += f.checkpoints;
  }
  ASSERT_GT(checkpoints, 0);
  EXPECT_GT(pause_s / checkpoints, 1.65)
      << "contention should at least double the mean checkpoint pause";

  // Both fabric-tier outages were injected, measured and healed: the
  // brownout's TTR includes draining the stretched snapshot backlog.
  EXPECT_EQ(r1.chaos.injected, 2);
  EXPECT_EQ(r1.chaos.disruptive, 2);
  EXPECT_EQ(r1.chaos.recovered, 2);
  EXPECT_GT(r1.chaos.mean_ttr_s, 0.0);

  // The result carries the fabric totals block.
  EXPECT_TRUE(r1.fabric_enabled);
  EXPECT_GT(r1.fabric_storage_transfers, 0);
  EXPECT_GT(r1.fabric_network_transfers, 0);
  EXPECT_GT(r1.fabric_stall_s, 0.0);
  EXPECT_GT(r1.fabric_max_queue, 1);

  // --- golden comparison ---------------------------------------------
  const std::string golden_path =
      std::string(DILU_GOLDEN_DIR) + "/fabric_contention_golden.json";
  if (std::getenv("DILU_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden_path, std::ios::binary) << r1.ToJson();
    GTEST_SKIP() << "golden regenerated into " << golden_path;
  }
  EXPECT_EQ(r1.ToJson(), ReadFileOrEmpty(golden_path))
      << "experiments/fabric_contention.exp drifted from its golden; "
         "regenerate with DILU_REGEN_GOLDEN=1 if the change is "
         "deliberate";
}

}  // namespace
}  // namespace dilu
