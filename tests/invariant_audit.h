/**
 * @file
 * Reusable cross-layer invariant auditor for the simulated fleet.
 *
 * `AuditState` checks the ClusterState placement indexes against the
 * ground truth they cache (bucket membership, active/idle partition,
 * min-idle answer, health/capacity legality, schedulable counters).
 * `AuditFleet` additionally cross-checks the scheduler's logical view
 * against the gpusim device layer and the cluster runtime (committed
 * quotas vs live attachments, down GPUs hold nothing, gateway routing
 * tables only reference live instances, grants conserve degraded
 * capacity).
 *
 * Both are plain gtest helpers: call them from any test at a key
 * checkpoint (after a fault, after recovery, after a scale storm) and
 * every violated invariant shows up as its own failure with context.
 * New invariants belong here, not inline in individual tests — every
 * caller inherits them for free.
 */
#ifndef DILU_TESTS_INVARIANT_AUDIT_H_
#define DILU_TESTS_INVARIANT_AUDIT_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "fabric/fabric.h"
#include "scheduler/gpu_state.h"

namespace dilu::testing {

/** Audit the ClusterState placement indexes (no runtime needed). */
inline void
AuditState(const scheduler::ClusterState& cs)
{
  const std::size_t n = cs.gpu_count();

  // --- active/idle partition ------------------------------------------
  std::set<GpuId> active_set(cs.active_gpus().begin(),
                             cs.active_gpus().end());
  std::set<GpuId> idle_set(cs.idle_gpus().begin(), cs.idle_gpus().end());
  EXPECT_EQ(active_set.size(), cs.active_gpus().size())
      << "duplicate ids in the active list";
  EXPECT_EQ(idle_set.size(), cs.idle_gpus().size())
      << "duplicate ids in the idle list";
  EXPECT_EQ(active_set.size() + idle_set.size(), n)
      << "active/idle lists do not partition the fleet";

  int schedulable = 0;
  int degraded = 0;
  double effective = 0.0;
  for (std::size_t u = 0; u < n; ++u) {
    const GpuId id = static_cast<GpuId>(u);
    const scheduler::GpuInfo& g = cs.gpu(id);
    SCOPED_TRACE(::testing::Message() << "gpu " << id);

    // --- health-state & capacity legality -----------------------------
    EXPECT_TRUE(g.health == GpuHealth::kUp
                || g.health == GpuHealth::kDegraded
                || g.health == GpuHealth::kDraining
                || g.health == GpuHealth::kDown)
        << "illegal health value";
    EXPECT_GT(g.capacity, 0.0);
    EXPECT_LE(g.capacity, 1.0);
    if (g.health == GpuHealth::kUp) {
      EXPECT_DOUBLE_EQ(g.capacity, 1.0)
          << "an up device must be whole (capacity resets on heal)";
    }

    // --- committed sums are sane --------------------------------------
    EXPECT_GE(g.req_sum, -1e-9);
    EXPECT_GE(g.lim_sum, -1e-9);
    EXPECT_GE(g.mem_used, -1e-9);
    EXPECT_LE(g.mem_used, scheduler::kGpuMemoryGb + 1e-6);
    EXPECT_GE(g.lim_sum, g.req_sum - 1e-6)
        << "limit sum below request sum";

    // --- list membership matches residency ----------------------------
    EXPECT_EQ(active_set.count(id) == 1, g.active())
        << "active-list membership disagrees with residency";
    EXPECT_EQ(idle_set.count(id) == 1, !g.active())
        << "idle-list membership disagrees with residency";

    if (g.schedulable()) {
      ++schedulable;
      effective += g.capacity;
    }
    if (g.health == GpuHealth::kDegraded) ++degraded;
  }
  EXPECT_EQ(cs.SchedulableGpuCount(), schedulable);
  EXPECT_EQ(cs.DegradedGpuCount(), degraded);
  EXPECT_NEAR(cs.EffectiveCapacity(), effective, 1e-9);
  EXPECT_EQ(cs.ActiveGpuCount(),
            static_cast<int>(cs.active_gpus().size()));

  // --- load buckets: exactly the active schedulable GPUs, each in the
  // bucket its req_sum maps to, no duplicates ---------------------------
  std::set<GpuId> bucketed;
  for (int b = 0; b < scheduler::ClusterState::kLoadBuckets; ++b) {
    for (GpuId id : cs.active_bucket(b)) {
      SCOPED_TRACE(::testing::Message()
                   << "gpu " << id << " in bucket " << b);
      EXPECT_TRUE(bucketed.insert(id).second)
          << "GPU appears in two buckets";
      const scheduler::GpuInfo& g = cs.gpu(id);
      EXPECT_TRUE(g.active()) << "idle GPU in a load bucket";
      EXPECT_TRUE(g.schedulable()) << "unschedulable GPU in a bucket";
      EXPECT_EQ(b, scheduler::ClusterState::LoadBucketFor(g.req_sum))
          << "GPU bucketed under a stale req_sum";
    }
  }
  for (GpuId id : cs.active_gpus()) {
    if (cs.gpu(id).schedulable()) {
      EXPECT_EQ(bucketed.count(id), 1u)
          << "active schedulable gpu " << id << " missing from buckets";
    } else {
      EXPECT_EQ(bucketed.count(id), 0u)
          << "unschedulable gpu " << id << " still bucketed";
    }
  }

  // --- min-idle answer matches a full scan ----------------------------
  GpuId expect_min = kInvalidGpu;
  for (GpuId id : cs.idle_gpus()) {
    if (!cs.gpu(id).schedulable()) continue;
    if (expect_min == kInvalidGpu || id < expect_min) expect_min = id;
  }
  EXPECT_EQ(cs.MinIdleGpu(), expect_min)
      << "lazy min-idle heap disagrees with the idle scan";
}

/**
 * Audit the fabric plane's conservation laws (docs/FABRIC.md):
 *  - in-flight bytes never exceed what the tiers can physically hold —
 *    Σ undelivered GB <= Σ capacity x remaining-busy-time over every
 *    device and link frontier;
 *  - no transfer ever completed faster than its bandwidth-limited
 *    lower bound (the plane latches any violation at submit time).
 * AuditFleet calls this automatically when the fabric is enabled.
 */
inline void
AuditFabric(const fabric::FabricPlane& fp, TimeUs now)
{
  EXPECT_LE(fp.InflightGb(now), fp.CapacityDelayGb(now) + 1e-6)
      << "in-flight transfer bytes exceed the fabric's capacity-delay "
         "product";
  EXPECT_FALSE(fp.lower_bound_violated())
      << "a transfer completed before its bandwidth-limited lower bound";
}

/**
 * Audit the whole fleet: the ClusterState indexes plus their agreement
 * with the gpusim device layer, the gateway and the runtime's instance
 * table. Call at key checkpoints of cluster-level tests — especially
 * right after faults, recoveries and scale storms.
 */
inline void
AuditFleet(scheduler::ClusterState& cs, cluster::ClusterRuntime& rt)
{
  AuditState(cs);

  // --- logical view vs device layer ------------------------------------
  for (std::size_t u = 0; u < cs.gpu_count(); ++u) {
    const GpuId id = static_cast<GpuId>(u);
    const scheduler::GpuInfo& g = cs.gpu(id);
    const gpusim::Gpu& dev = rt.gpus().gpu(id);
    SCOPED_TRACE(::testing::Message() << "gpu " << id);

    // Committed resources mirror live attachments exactly: what the
    // scheduler believes is reserved is what the device executes.
    EXPECT_NEAR(g.req_sum, dev.reserved_request_share(), 1e-6)
        << "state req_sum drifted from attached request quotas";
    EXPECT_NEAR(g.lim_sum, dev.reserved_limit_share(), 1e-6)
        << "state lim_sum drifted from attached limit quotas";
    EXPECT_NEAR(g.mem_used, dev.memory_used_gb(), 1e-6)
        << "state memory drifted from attached memory";

    // Degradation is mirrored into the device (grant squeeze ceiling).
    EXPECT_NEAR(g.capacity, dev.compute_capacity(), 1e-12)
        << "state capacity drifted from the device capacity";

    // Capacity conservation: post-squeeze grants never exceed the
    // surviving compute, degraded or not.
    EXPECT_LE(dev.used_share(), dev.compute_capacity() + 1e-9)
        << "grants exceed the device's effective capacity";

    // A down device executes nothing and hosts nothing (the cluster
    // layer kills residents synchronously with the health transition).
    if (g.health == GpuHealth::kDown) {
      EXPECT_TRUE(dev.attachments().empty())
          << "down GPU still has attachments";
      EXPECT_FALSE(g.active()) << "down GPU still marked resident";
    }

    // Residency lists mirror the attachments' owning functions.
    std::multiset<FunctionId> state_fns(g.functions.begin(),
                                        g.functions.end());
    std::multiset<FunctionId> dev_fns;
    for (const gpusim::Attachment& a : dev.attachments()) {
      runtime::Instance* inst = rt.instance(a.id);
      ASSERT_NE(inst, nullptr)
          << "attachment references an unknown instance " << a.id;
      dev_fns.insert(inst->function());
    }
    EXPECT_EQ(state_fns, dev_fns)
        << "resident-function index drifted from the attachments";
  }

  // --- no instance stranded, no ghost routed ---------------------------
  for (FunctionId fn : rt.DeployedFunctions()) {
    const cluster::DeployedFunction& f = rt.function(fn);
    SCOPED_TRACE(::testing::Message() << "function " << fn);
    std::set<InstanceId> live(f.live_instances.begin(),
                              f.live_instances.end());
    EXPECT_EQ(live.size(), f.live_instances.size())
        << "duplicate live instance ids";
    for (InstanceId id : f.live_instances) {
      runtime::Instance* inst = rt.instance(id);
      ASSERT_NE(inst, nullptr) << "live instance " << id << " unknown";
      EXPECT_NE(inst->state(), runtime::InstanceState::kTerminated)
          << "terminated instance " << id << " still listed live";
    }
    if (f.spec.type != TaskType::kInference) continue;
    // The gateway routes to exactly the live instances: a request can
    // never be queued at a dead instance (stranded) and never misses a
    // live one.
    const auto& routed = rt.gateway().instances(fn);
    EXPECT_EQ(routed.size(), live.size())
        << "gateway routing table out of sync with live instances";
    for (const runtime::InferenceInstance* inst : routed) {
      EXPECT_EQ(live.count(inst->client_id()), 1u)
          << "gateway routes to non-live instance "
          << inst->client_id();
    }

    // --- gateway request conservation ---------------------------------
    // Every request offered to Dispatch is in exactly one place: done
    // (finished or terminally shed/dropped), queued at an instance, or
    // parked in a retry timer. Holds at any instant between events.
    const cluster::GatewayCounters& c = rt.gateway().counters(fn);
    std::int64_t queued_live = 0;
    for (const runtime::InferenceInstance* inst : routed) {
      queued_live += static_cast<std::int64_t>(
          inst->queue_depth() + inst->batch_in_flight_size());
    }
    EXPECT_EQ(c.arrivals,
              c.finished + c.shed_admission + c.shed_retry + c.dropped
                  + queued_live + c.retry_pending)
        << "gateway conservation violated: arrivals=" << c.arrivals
        << " finished=" << c.finished << " shed_admission="
        << c.shed_admission << " shed_retry=" << c.shed_retry
        << " dropped=" << c.dropped << " queued=" << queued_live
        << " retry_pending=" << c.retry_pending;
    EXPECT_EQ(c.outstanding, queued_live + c.retry_pending)
        << "outstanding drifted from live queue + parked retries";
    EXPECT_LE(c.outstanding, c.peak_outstanding);
    const int cap = f.spec.queue_cap;
    if (cap > 0) {
      EXPECT_LE(c.outstanding, cap)
          << "bounded admission queue exceeded its cap";
      EXPECT_LE(c.peak_outstanding, cap)
          << "bounded admission queue exceeded its cap at some point";
    }
  }

  EXPECT_GE(rt.pending_recovery_count(), 0);

  if (rt.fabric() != nullptr) AuditFabric(*rt.fabric(), rt.now());
}

}  // namespace dilu::testing

#endif  // DILU_TESTS_INVARIANT_AUDIT_H_
