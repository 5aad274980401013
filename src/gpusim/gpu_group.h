/**
 * @file
 * GpuGroup: the fleet of simulated GPUs plus the global 5 ms quantum
 * engine that drives them in lockstep.
 *
 * Ticking every GPU at the same instant lets multi-GPU (pipeline
 * parallel) instances aggregate per-shard grants consistently, and it
 * mirrors the paper's implementation where each GPU device is managed by
 * a dedicated RCKM thread on a common period.
 */
#ifndef DILU_GPUSIM_GPU_GROUP_H_
#define DILU_GPUSIM_GPU_GROUP_H_

#include <functional>
#include <memory>
#include <vector>

#include "gpusim/gpu.h"
#include "sim/simulation.h"

namespace dilu::gpusim {

/** Creates a GPU's sharing policy, on the GPU's first attach. */
using ArbiterFactory = std::function<std::unique_ptr<ShareArbiter>(GpuId)>;

/**
 * Owns all GPUs in the simulated cluster and the quantum loop.
 *
 * Per quantum: (1) collect demands from every attachment, (2) run each
 * GPU's arbiter and (3) deliver its grants in the same walk, (4) let
 * each distinct client advance its in-flight work once, (5) record
 * utilization.
 *
 * Every phase walks only the live GPUs (see live_gpus()), so a quantum
 * costs O(occupied GPUs + their attachments), not O(fleet).
 */
class GpuGroup {
 public:
  /**
   * @param sim        simulation driver providing the periodic tick
   * @param factory    builds a GPU's arbiter when it is first needed
   * @param quantum    token period (defaults to the paper's 5 ms)
   */
  GpuGroup(sim::Simulation* sim, ArbiterFactory factory,
           TimeUs quantum = kTokenPeriodUs);

  /**
   * Add a GPU; returns its id (dense, starting at 0). Its arbiter is
   * built on its first Attach or arbiter() call, so a fleet's set-up
   * costs no factory call per idle GPU.
   */
  GpuId AddGpu(double memory_gb);

  Gpu& gpu(GpuId id);
  const Gpu& gpu(GpuId id) const;
  std::size_t gpu_count() const { return gpus_.size(); }

  /** The GPU's arbiter, built by the factory if not yet built. */
  ShareArbiter& arbiter(GpuId id);

  /**
   * Attach an instance shard to a GPU. Safe from a FinishQuantum
   * callback; not from ComputeDemand or OnGrant.
   */
  void Attach(GpuId id, const Attachment& att);

  /** Detach an instance from every GPU it occupies. */
  void DetachEverywhere(InstanceId instance);

  /**
   * The GPUs the quantum engine walks, in ascending id order: every GPU
   * holding an attachment, plus each GPU emptied since the last quantum
   * until that quantum records its idle (0-share) sample. A GPU joins
   * in Attach; after its idle sample its utilization integral is final
   * until the next Attach, so it needs no further samples.
   */
  const std::vector<GpuId>& live_gpus() const { return live_; }

  TimeUs quantum() const { return quantum_; }

  /** Begin ticking (idempotent). Call after the first attachment. */
  void Start();

  /** Run one quantum synchronously (used by unit tests). */
  void TickOnce();

 private:
  void Tick();

  sim::Simulation* sim_;
  ArbiterFactory factory_;
  TimeUs quantum_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
  /** Null until the GPU's first Attach or arbiter() call. */
  std::vector<std::unique_ptr<ShareArbiter>> arbiters_;
  std::vector<GpuId> live_;             ///< sorted ascending
  std::vector<GpuClient*> finishing_;   ///< phase-4 scratch, reused
  bool started_ = false;
};

}  // namespace dilu::gpusim

#endif  // DILU_GPUSIM_GPU_GROUP_H_
