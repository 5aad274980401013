#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "experiment/experiment.h"
#include "gpusim/gpu_group.h"
#include "rckm/token_manager.h"
#include "runtime/inference_instance.h"

namespace perfbench {

using namespace dilu;
using Clock = std::chrono::steady_clock;

namespace {

double
SecondsSince(Clock::time_point start)
{
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Median over `batches` batches of the host ns one `op(k)` call takes,
 * each batch running `ops` calls. Batches are timed separately so one
 * slow batch (a page fault, a migration) cannot move the figure.
 */
template <typename Op>
double
MedianNsPerOp(int batches, int ops, Op&& op)
{
  std::vector<double> ns;
  int k = 0;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < ops; ++i) op(k++);
    ns.push_back(SecondsSince(start) * 1e9 / ops);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/** A client that always wants the same share and does no work. */
class StubClient : public gpusim::GpuClient {
 public:
  explicit StubClient(InstanceId id) : id_(id) {}
  InstanceId client_id() const override { return id_; }
  double ComputeDemand(int /*slot*/) override { return 0.3; }
  void OnGrant(int /*slot*/, double /*share*/) override {}
  void FinishQuantum(TimeUs /*quantum*/) override {}

 private:
  InstanceId id_;
};

/** A GpuGroup of Dilu arbiters with stub clients attached. */
struct StubFleet {
  StubFleet(int fleet, const std::vector<GpuId>& hosts)
      : group(&sim, [](GpuId) {
          return std::make_unique<rckm::DiluArbiter>();
        })
  {
    for (int g = 0; g < fleet; ++g) group.AddGpu(40.0);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      clients.push_back(
          std::make_unique<StubClient>(static_cast<InstanceId>(i)));
      gpusim::Attachment att;
      att.client = clients.back().get();
      att.id = static_cast<InstanceId>(i);
      att.quota = SmQuota{0.3, 0.6};
      att.memory_gb = 2.0;
      group.Attach(hosts[i], att);
    }
  }

  sim::Simulation sim;
  gpusim::GpuGroup group;
  std::vector<std::unique_ptr<StubClient>> clients;
};

}  // namespace

void
ArmProbe(cluster::ClusterRuntime& rt, ProbeLog* log)
{
  // The first firing (t = 0) only starts the clock; every later one
  // closes one simulated second of host time.
  rt.simulation().SchedulePeriodic(
      0, Sec(1), [&rt, log, last = Clock::time_point{}]() mutable {
        const Clock::time_point now = Clock::now();
        if (last != Clock::time_point{}) {
          log->step_ms.push_back(
              std::chrono::duration<double, std::milli>(now - last)
                  .count());
        }
        last = now;
        log->pending_events_max =
            std::max(log->pending_events_max,
                     rt.simulation().queue().PendingCount());
        int occupied = 0;
        for (std::size_t g = 0; g < rt.gpus().gpu_count(); ++g) {
          if (rt.gpus().gpu(static_cast<GpuId>(g)).occupied()) ++occupied;
        }
        log->occupied_gpus.push_back(occupied);
        log->collocation_max =
            std::max(log->collocation_max, MaxCollocation(rt));
        int live = 0;
        int idle = 0;
        for (const FunctionId fn : rt.DeployedFunctions()) {
          for (const InstanceId id : rt.function(fn).live_instances) {
            const auto* inst =
                dynamic_cast<runtime::InferenceInstance*>(rt.instance(id));
            if (inst == nullptr) continue;
            ++live;
            if (inst->queue_depth() == 0 && !inst->batch_in_flight()) {
              ++idle;
            }
          }
        }
        log->live_instances.push_back(live);
        log->idle_instances.push_back(idle);
      });
}

int
MaxCollocation(cluster::ClusterRuntime& rt)
{
  std::size_t most = 0;
  for (std::size_t g = 0; g < rt.gpus().gpu_count(); ++g) {
    most = std::max(
        most, rt.gpus().gpu(static_cast<GpuId>(g)).attachments().size());
  }
  return static_cast<int>(most);
}

double
ReplayGpuTickUs(int fleet, int occupied)
{
  std::vector<GpuId> hosts;
  for (int i = 0; i < occupied; ++i) {
    hosts.push_back(static_cast<GpuId>(
        static_cast<std::int64_t>(i) * fleet / std::max(1, occupied)));
  }
  StubFleet f(fleet, hosts);
  return MedianNsPerOp(9, 200, [&](int) { f.group.TickOnce(); }) / 1e3;
}

double
ReplayRckmTickUs(int collocation)
{
  StubFleet f(1, std::vector<GpuId>(std::max(1, collocation), 0));
  return MedianNsPerOp(9, 2000, [&](int) { f.group.TickOnce(); }) / 1e3;
}

double
ReplayPlacementUs(cluster::ClusterRuntime& rt)
{
  std::vector<FunctionId> fns;
  for (const FunctionId fn : rt.DeployedFunctions()) {
    if (rt.function(fn).spec.type != TaskType::kInference) continue;
    if (rt.DeployedInstanceCount(fn) == 0) rt.LaunchInference(fn, false);
    fns.push_back(fn);
  }
  if (fns.empty()) return 0.0;
  return MedianNsPerOp(9, 100, [&](int k) {
           const FunctionId fn = fns[static_cast<std::size_t>(k)
                                     % fns.size()];
           rt.LaunchInference(fn, false);
           rt.ScaleInOne(fn);
         })
      / 1e3;
}

double
ReplayArrivalGapNs(const experiment::ExperimentSpec& spec,
                   std::uint64_t seed)
{
  std::vector<std::unique_ptr<workload::ArrivalProcess>> procs;
  for (std::size_t i = 0; i < spec.workloads().size(); ++i) {
    const experiment::WorkloadSpec& w = spec.workloads()[i];
    procs.push_back(experiment::BuildArrivalProcess(
        w, w.seed ? *w.seed : experiment::WorkloadStreamSeed(seed, i)));
  }
  TimeUs sink = 0;
  const double ns = MedianNsPerOp(9, 20000, [&](int k) {
    sink += procs[static_cast<std::size_t>(k) % procs.size()]->NextGap();
  });
  // Keep the gaps observable so the calls cannot be dropped.
  return sink == -1 ? 0.0 : ns;
}

}  // namespace perfbench
