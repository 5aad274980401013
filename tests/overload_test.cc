/**
 * @file
 * Overload-resilience layer tests (docs/OVERLOAD.md): the gateway's
 * bounded admission queue, the AIMD admit-rate controller (congestion
 * sheds cut, rate-gate sheds must not), lowest-class-first brownout
 * shedding, retry budgets with backoff parking (including the
 * park-on-unroutable blackout path), plus the end-to-end golden run of
 * experiments/overload_shed.exp and a randomized surge/throttle
 * conservation property test over the whole cluster.
 *
 * The golden comparison regenerates with:
 *
 *   DILU_REGEN_GOLDEN=1 ./tests/overload_test
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/gateway.h"
#include "experiment/experiment.h"
#include "invariant_audit.h"
#include "models/model_catalog.h"

namespace dilu {
namespace {

#ifndef DILU_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DILU_GOLDEN_DIR"
#endif
#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif

/**
 * Gateway-only harness: functions with overload policies and parked
 * (never-warming) cold instances, so requests queue without executing
 * and every admission decision is directly observable.
 */
struct OverloadRig {
  sim::Simulation sim;
  const models::ModelProfile& model = models::GetModel("bert-base");
  cluster::Gateway gateway{&sim, 7};
  std::vector<std::unique_ptr<runtime::InferenceInstance>> owned;
  std::map<FunctionId, std::vector<runtime::InferenceInstance*>> by_fn;
  std::vector<std::unique_ptr<workload::Request>> requests;
  int next_id = 1;

  void AddFunction(FunctionId fn, const cluster::AdmissionConfig& cfg)
  {
    gateway.RegisterFunction(fn);
    gateway.ConfigureAdmission(fn, cfg);
  }

  runtime::InferenceInstance* AddColdInstance(FunctionId fn)
  {
    owned.push_back(std::make_unique<runtime::InferenceInstance>(
        next_id++, 0, &model, 64, &sim));
    owned.back()->BeginColdStart(Sec(1000));  // parked: never runs
    gateway.AddInstance(fn, owned.back().get());
    by_fn[fn].push_back(owned.back().get());
    return owned.back().get();
  }

  workload::Request* NewRequest(FunctionId fn)
  {
    requests.push_back(std::make_unique<workload::Request>());
    requests.back()->function = fn;
    requests.back()->arrival = sim.now();
    return requests.back().get();
  }

  /** Dispatch `n` fresh requests; returns how many were admitted. */
  int Flood(FunctionId fn, int n)
  {
    int admitted = 0;
    for (int i = 0; i < n; ++i) {
      if (gateway.Dispatch(NewRequest(fn))) ++admitted;
    }
    return admitted;
  }

  /**
   * The gateway conservation invariant, per function: every request
   * offered to Dispatch is in exactly one terminal or live place.
   */
  void ExpectConserved(FunctionId fn)
  {
    const cluster::GatewayCounters& c = gateway.counters(fn);
    std::int64_t queued = 0;
    for (const runtime::InferenceInstance* i : by_fn[fn]) {
      queued += static_cast<std::int64_t>(i->queue_depth()
                                          + i->batch_in_flight_size());
    }
    EXPECT_EQ(c.arrivals,
              c.finished + c.shed_admission + c.shed_retry + c.dropped
                  + queued + c.retry_pending);
    EXPECT_EQ(c.outstanding, queued + c.retry_pending);
  }
};

cluster::AdmissionConfig
Policy(ServiceClass cls, int cap, int retries = 0,
       TimeUs backoff = Ms(100), TimeUs deadline = 0)
{
  cluster::AdmissionConfig cfg;
  cfg.service_class = cls;
  cfg.queue_cap = cap;
  cfg.retry_budget = retries;
  cfg.retry_backoff = backoff;
  cfg.deadline = deadline;
  return cfg;
}

// --- bounded admission queue -----------------------------------------

TEST(Admission, QueueCapBoundsOutstanding)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 4));
  rig.AddColdInstance(0);
  EXPECT_EQ(rig.Flood(0, 10), 4);

  const cluster::GatewayCounters& c = rig.gateway.counters(0);
  EXPECT_EQ(c.arrivals, 10);
  EXPECT_EQ(c.admitted, 4);
  EXPECT_EQ(c.shed_admission, 6);
  EXPECT_EQ(c.outstanding, 4);
  EXPECT_EQ(c.peak_outstanding, 4);
  rig.ExpectConserved(0);
}

TEST(Admission, ParkedRetriesOccupyCapSlots)
{
  // The cap bounds *outstanding*, not just instance queues: requests
  // parked in backoff timers hold their slot, so a blackout cannot
  // build an unbounded retry backlog.
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 2, /*retries=*/2,
                            /*backoff=*/Sec(10)));
  EXPECT_EQ(rig.Flood(0, 3), 2);  // no instances: both admits park

  const cluster::GatewayCounters& c = rig.gateway.counters(0);
  EXPECT_EQ(c.retry_pending, 2);
  EXPECT_EQ(c.outstanding, 2);
  EXPECT_EQ(c.shed_admission, 1);
  rig.ExpectConserved(0);
}

// --- AIMD admit-rate controller --------------------------------------

TEST(Admission, AimdCutsOnCongestionAndRecoversAdditively)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 4));
  rig.AddColdInstance(0);
  EXPECT_TRUE(std::isinf(rig.gateway.admit_rate(0)));

  // An overloaded window: 4 admitted (the cap), 6 congestion sheds.
  rig.Flood(0, 10);
  rig.sim.RunFor(Ms(1100));
  // First engagement anchors at the achieved rate: max(1, 4 * 0.5).
  EXPECT_DOUBLE_EQ(rig.gateway.admit_rate(0), 2.0);

  // Shed-free windows raise additively (+4 req/s per window).
  rig.sim.RunFor(Sec(1));
  EXPECT_DOUBLE_EQ(rig.gateway.admit_rate(0), 6.0);
  rig.sim.RunFor(Sec(1));
  EXPECT_DOUBLE_EQ(rig.gateway.admit_rate(0), 10.0);
  rig.ExpectConserved(0);
}

TEST(Admission, RateGateShedsDoNotFeedTheCut)
{
  // Sheds caused by the rate limit itself must not drive further
  // multiplicative cuts, or the controller spirals to the floor: every
  // window the offered load exceeds the (already cut) rate would cut
  // again, forever.
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 100));
  rig.AddColdInstance(0);

  rig.gateway.ForceAdmitRate(0, 2.0);
  EXPECT_EQ(rig.Flood(0, 10), 2);  // 8 rate-gate sheds
  EXPECT_EQ(rig.gateway.counters(0).shed_admission, 8);
  rig.gateway.ClearForcedAdmitRate(0);
  // AIMD resumes from the pinned rate (the function keeps its cap).
  EXPECT_DOUBLE_EQ(rig.gateway.admit_rate(0), 2.0);

  rig.sim.RunFor(Ms(1100));
  // A cut would have floored the rate to 1.0; the clean raise to 6.0
  // proves the 8 rate-gate sheds were not counted as congestion.
  EXPECT_DOUBLE_EQ(rig.gateway.admit_rate(0), 6.0);
  rig.ExpectConserved(0);
}

TEST(Admission, ClearingForcedRateWithoutCapDisengagesTheGate)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, /*cap=*/0));
  rig.AddColdInstance(0);
  rig.gateway.ForceAdmitRate(0, 1.0);
  EXPECT_EQ(rig.Flood(0, 5), 1);
  rig.gateway.ClearForcedAdmitRate(0);
  EXPECT_TRUE(std::isinf(rig.gateway.admit_rate(0)));
  EXPECT_EQ(rig.Flood(0, 5), 5);  // legacy unbounded admission again
  rig.ExpectConserved(0);
}

// --- brownout: strictly lowest-class-first ---------------------------

TEST(Brownout, ShedsBestEffortFirstWhileOthersAdmit)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kCritical, 30));
  rig.AddFunction(1, Policy(ServiceClass::kStandard, 10));
  rig.AddFunction(2, Policy(ServiceClass::kBestEffort, 10));
  for (FunctionId fn = 0; fn < 3; ++fn) rig.AddColdInstance(fn);

  // A deep critical backlog: pressure = 29 / 50 = 0.58 after the next
  // admission tick — above best_effort's 0.5, below standard's 0.9.
  EXPECT_EQ(rig.Flood(0, 29), 29);
  rig.sim.RunFor(Ms(1100));
  EXPECT_NEAR(rig.gateway.pressure(), 0.58, 1e-9);

  EXPECT_EQ(rig.Flood(2, 1), 0);  // best_effort browns out first
  EXPECT_EQ(rig.gateway.counters(2).shed_admission, 1);
  EXPECT_EQ(rig.Flood(1, 1), 1);  // standard still admits
  EXPECT_EQ(rig.Flood(0, 1), 1);  // critical still admits
  for (FunctionId fn = 0; fn < 3; ++fn) rig.ExpectConserved(fn);
}

TEST(Brownout, EscalatesToStandardButNeverCritical)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kCritical, 80));
  rig.AddFunction(1, Policy(ServiceClass::kStandard, 15));
  rig.AddFunction(2, Policy(ServiceClass::kBestEffort, 5));
  for (FunctionId fn = 0; fn < 3; ++fn) rig.AddColdInstance(fn);

  // pressure = (78 + 14) / 100 = 0.92: above standard's 0.9 threshold.
  EXPECT_EQ(rig.Flood(0, 78), 78);
  EXPECT_EQ(rig.Flood(1, 14), 14);
  rig.sim.RunFor(Ms(1100));
  EXPECT_NEAR(rig.gateway.pressure(), 0.92, 1e-9);

  EXPECT_EQ(rig.Flood(1, 1), 0);  // standard sheds now
  EXPECT_EQ(rig.Flood(2, 1), 0);  // best_effort sheds a fortiori
  EXPECT_EQ(rig.Flood(0, 1), 1);  // critical never brownout-sheds
  for (FunctionId fn = 0; fn < 3; ++fn) rig.ExpectConserved(fn);
}

// --- retry budgets, backoff parking, deadlines -----------------------

TEST(Retry, BudgetExhaustionIsShedRetryNotDrop)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 8, /*retries=*/1,
                            /*backoff=*/Ms(20)));
  // No instance at all: the admit parks in a backoff timer.
  EXPECT_TRUE(rig.gateway.Dispatch(rig.NewRequest(0)));
  EXPECT_EQ(rig.gateway.counters(0).retry_pending, 1);

  rig.sim.RunFor(Sec(1));  // the retry fires, still unroutable
  const cluster::GatewayCounters& c = rig.gateway.counters(0);
  EXPECT_EQ(c.shed_retry, 1);  // distinct from shed_admission / dropped
  EXPECT_EQ(c.shed_admission, 0);
  EXPECT_EQ(c.dropped, 0);
  EXPECT_EQ(c.retry_pending, 0);
  EXPECT_EQ(c.outstanding, 0);
  rig.ExpectConserved(0);
}

TEST(Retry, DeadlineExpiryShedsBeforeReDispatch)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 8, /*retries=*/3,
                            /*backoff=*/Ms(200), /*deadline=*/Ms(50)));
  EXPECT_TRUE(rig.gateway.Dispatch(rig.NewRequest(0)));

  // The first backoff (>= 200 ms) already overshoots the 50 ms
  // deadline: the retry is shed with budget left.
  rig.sim.RunFor(Sec(1));
  EXPECT_EQ(rig.gateway.counters(0).shed_retry, 1);
  rig.ExpectConserved(0);
}

TEST(Retry, ParkOnUnroutableRidesOutABlackout)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 8, /*retries=*/3,
                            /*backoff=*/Ms(50)));
  // Total blackout at arrival time...
  EXPECT_TRUE(rig.gateway.Dispatch(rig.NewRequest(0)));
  EXPECT_EQ(rig.gateway.counters(0).retry_pending, 1);

  // ...but capacity returns before the backoff horizon expires.
  runtime::InferenceInstance* inst = rig.AddColdInstance(0);
  rig.sim.RunFor(Ms(500));
  EXPECT_EQ(inst->queue_depth(), 1u);
  const cluster::GatewayCounters& c = rig.gateway.counters(0);
  EXPECT_EQ(c.retry_pending, 0);
  EXPECT_EQ(c.outstanding, 1);
  EXPECT_EQ(c.shed_retry, 0);
  rig.ExpectConserved(0);
}

TEST(Retry, RemoveInstanceRehomesQueuedWorkViaBackoff)
{
  OverloadRig rig;
  rig.AddFunction(0, Policy(ServiceClass::kStandard, 16, /*retries=*/2,
                            /*backoff=*/Ms(50)));
  runtime::InferenceInstance* a = rig.AddColdInstance(0);
  EXPECT_EQ(rig.Flood(0, 3), 3);
  ASSERT_EQ(a->queue_depth(), 3u);

  // Removing the only instance re-homes through the retry machinery:
  // no arrival is recounted, nothing is dropped.
  rig.gateway.RemoveInstance(0, a->client_id());
  EXPECT_EQ(rig.gateway.counters(0).retry_pending, 3);
  rig.by_fn[0].clear();

  runtime::InferenceInstance* b = rig.AddColdInstance(0);
  rig.sim.RunFor(Ms(500));
  EXPECT_EQ(b->queue_depth(), 3u);
  const cluster::GatewayCounters& c = rig.gateway.counters(0);
  EXPECT_EQ(c.arrivals, 3);
  EXPECT_EQ(c.dropped, 0);
  EXPECT_EQ(c.shed_retry, 0);
  rig.ExpectConserved(0);
}

// --- the checked-in overload_shed experiment -------------------------

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream f(path, std::ios::binary);
  std::stringstream out;
  out << f.rdbuf();
  return out.str();
}

experiment::ExperimentSpec
LoadOverloadShedSpec()
{
  const std::string text = ReadFileOrEmpty(
      std::string(DILU_EXPERIMENTS_DIR) + "/overload_shed.exp");
  EXPECT_FALSE(text.empty());
  experiment::ExperimentSpec spec;
  std::string error;
  EXPECT_TRUE(experiment::ExperimentSpec::Parse(text, &spec, &error))
      << error;
  return spec;
}

TEST(OverloadGolden, ShedExperimentIsDeterministicAndMeetsSlos)
{
  experiment::RunOptions opts;
  opts.seed = 1;  // the CI smoke's invocation: dilu_run --seed 1

  experiment::Experiment run1(LoadOverloadShedSpec(), opts);
  const experiment::ExperimentResult r1 = run1.Run();
  // The full fleet audit (incl. gateway conservation) at quiescence.
  testing::AuditFleet(run1.runtime().state(), run1.runtime());

  experiment::Experiment run2(LoadOverloadShedSpec(), opts);
  const experiment::ExperimentResult r2 = run2.Run();
  EXPECT_EQ(r1.ToJson(), r2.ToJson())
      << "two seeded runs must serialize byte-identically";

  // --- the acceptance bar from docs/OVERLOAD.md ----------------------
  ASSERT_EQ(r1.functions.size(), 4u);
  const experiment::FunctionResult& crit = r1.functions[0];
  const experiment::FunctionResult& std_fn = r1.functions[1];
  const experiment::FunctionResult& best = r1.functions[2];
  EXPECT_EQ(crit.service_class, ServiceClass::kCritical);
  EXPECT_EQ(std_fn.service_class, ServiceClass::kStandard);
  EXPECT_EQ(best.service_class, ServiceClass::kBestEffort);

  // Critical rides out the 4x overload, the throttle and the rolling
  // two-node blackout without shedding a single request.
  EXPECT_GE(crit.availability_percent, 99.0);
  EXPECT_EQ(crit.shed_admission + crit.shed_retry, 0);
  EXPECT_LE(crit.peak_queue, 1024);  // bounded: never exceeds its cap
  EXPECT_LE(std_fn.peak_queue, 24);
  EXPECT_LE(best.peak_queue, 8);

  // Standard's tight retry budget exhausts during the blackout: the
  // shed_retry outcome is distinct from admission sheds and non-zero.
  EXPECT_GT(std_fn.shed_retry, 0);
  EXPECT_GT(std_fn.shed_admission, 0);

  // Best-effort sheds first and hardest under the brownout ladder.
  EXPECT_GT(best.shed_admission, 0);
  EXPECT_LT(best.availability_percent, std_fn.availability_percent);
  EXPECT_LT(std_fn.availability_percent, crit.availability_percent);

  // The chaos verdict measured both shedding windows and saw the
  // gateway quiesce after each.
  EXPECT_EQ(r1.chaos.shed_events, 2);
  EXPECT_TRUE(r1.chaos.AllShedRecovered());
  EXPECT_GT(r1.chaos.mean_ttsr_s, 0.0);
  EXPECT_EQ(r1.total_shed,
            std_fn.shed_admission + std_fn.shed_retry
                + best.shed_admission + best.shed_retry);

  // --- golden comparison ---------------------------------------------
  const std::string golden_path =
      std::string(DILU_GOLDEN_DIR) + "/overload_shed_golden.json";
  if (std::getenv("DILU_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden_path, std::ios::binary) << r1.ToJson();
    GTEST_SKIP() << "golden regenerated into " << golden_path;
  }
  EXPECT_EQ(r1.ToJson(), ReadFileOrEmpty(golden_path))
      << "experiments/overload_shed.exp drifted from its golden; "
         "regenerate with DILU_REGEN_GOLDEN=1 if the change is "
         "deliberate";
}

// --- randomized conservation property --------------------------------

/**
 * Random overload policies, workloads, surges, throttles and node
 * faults: whatever happens, the fleet audit (and with it the gateway
 * conservation invariant) must hold at quiescence. Fixed-seed Rng, so
 * a failure reproduces exactly.
 */
TEST(OverloadProperty, RandomSurgeThrottleStormConservesRequests)
{
  Rng rng(0xABCDEFu);
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    experiment::ExperimentSpec spec("storm");
    spec.cluster().nodes = 2;
    spec.cluster().seed = static_cast<std::uint64_t>(round + 1);

    const ServiceClass classes[] = {ServiceClass::kCritical,
                                    ServiceClass::kStandard,
                                    ServiceClass::kBestEffort};
    for (int fn = 0; fn < 3; ++fn) {
      experiment::DeploySpec& d = spec.AddInference("resnet152");
      d.provision = 1;
      d.scaler = "dilu-lazy";
      d.fn.admission_class = classes[fn];
      d.fn.queue_cap = static_cast<int>(rng.UniformInt(4, 64));
      d.fn.retry_budget = static_cast<int>(rng.UniformInt(0, 3));
      d.fn.retry_backoff = Ms(rng.UniformInt(10, 500));
      if (rng.UniformInt(0, 1) == 1) {
        d.fn.deadline = Ms(rng.UniformInt(100, 2000));
      }
      spec.AddPoisson(fn, static_cast<double>(rng.UniformInt(10, 50)),
                      Sec(15));
    }

    spec.chaos().Overload(
        Sec(3), static_cast<FunctionId>(rng.UniformInt(0, 2)),
        static_cast<double>(rng.UniformInt(2, 6)),
        Sec(rng.UniformInt(2, 6)));
    if (rng.UniformInt(0, 1) == 1) {
      spec.chaos().ThrottleAdmit(
          Sec(5), static_cast<FunctionId>(rng.UniformInt(0, 2)),
          static_cast<double>(rng.UniformInt(1, 20)),
          Sec(rng.UniformInt(2, 5)));
    }
    if (rng.UniformInt(0, 1) == 1) {
      spec.chaos().FailNode(Sec(7), 0).RecoverNode(Sec(11), 0);
    }
    spec.RunFor(Sec(20));

    // The spec (including the new keys) round-trips byte-identically.
    const std::string text = spec.ToText();
    experiment::ExperimentSpec parsed;
    std::string error;
    ASSERT_TRUE(experiment::ExperimentSpec::Parse(text, &parsed, &error))
        << error << "\n" << text;
    EXPECT_EQ(parsed.ToText(), text);

    experiment::Experiment exp(std::move(spec));
    exp.Run();
    testing::AuditFleet(exp.runtime().state(), exp.runtime());
  }
}

}  // namespace
}  // namespace dilu
