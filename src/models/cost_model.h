/**
 * @file
 * Analytic DL cost model: all latency/throughput math in one place.
 *
 * This module turns a ModelProfile into the quantities the rest of the
 * system consumes: inference execution time at a given <batch, SM share>,
 * saturation shares (the "how many SMs can this kernel stream actually
 * use" cap that makes static MPS quotas wasteful), training iteration
 * times, the throughput-efficacy (TE) metric driving the profiler's
 * Hybrid Growth Search, and cold-start durations.
 */
#ifndef DILU_MODELS_COST_MODEL_H_
#define DILU_MODELS_COST_MODEL_H_

#include "common/types.h"
#include "models/model_catalog.h"

namespace dilu::models {

/**
 * SM share beyond which batch-B kernels of `m` gain (almost) nothing.
 * Matches the marginal effect the paper observes in Fig 4.
 */
SmRate SaturationShare(const ModelProfile& m, int batch);

/**
 * Relative execution speed of a batch-B inference iteration at SM share
 * `s`, normalized to 1.0 at s = SaturationShare. Below saturation speed
 * is linear in s; above it only `post_sat_slope` residual gain remains.
 */
double InferenceSpeed(const ModelProfile& m, int batch, SmRate s);

/** InferenceSpeed for a batch whose SaturationShare `sat` is known. */
double InferenceSpeed(const ModelProfile& m, SmRate sat, SmRate s);

/** Full-speed (share >= saturation) batch-B iteration time. */
TimeUs InferenceIterationFull(const ModelProfile& m, int batch);

/** Batch-B iteration time at SM share s. */
TimeUs InferenceIteration(const ModelProfile& m, int batch, SmRate s);

/** Requests served per second at <batch, share>, back-to-back batches. */
double InferenceThroughput(const ModelProfile& m, int batch, SmRate s);

/**
 * Throughput efficacy TE = Throughput / SMR = IBS / (t_exec * SMR)
 * (Section 3.2), the metric maximized by the Hybrid Growth Search.
 * Units: requests per second per unit of whole-GPU share.
 */
double ThroughputEfficacy(const ModelProfile& m, int batch, SmRate s);

/**
 * The paper's execution-time budget for batching inference:
 * t_exec = SLO / 2, leaving the other half for batching wait,
 * communication and preprocessing (footnote 2).
 */
TimeUs ExecBudget(const ModelProfile& m);

/** True iff <batch, share> completes within the SLO/2 exec budget. */
bool MeetsSlo(const ModelProfile& m, int batch, SmRate s);

/** Relative training compute speed at share s (saturates at train_sat). */
double TrainingSpeed(const ModelProfile& m, SmRate s);

/** Compute-phase duration of one training iteration at share s. */
TimeUs TrainingComputePhase(const ModelProfile& m, SmRate s);

/** Communication / bubble phase duration (GPU idle). */
TimeUs TrainingCommPhase(const ModelProfile& m);

/**
 * Steady-state training throughput (samples/s across `workers` workers,
 * each at share s). Lockstep DDP: throughput scales with workers but the
 * iteration takes compute(s) + comm.
 */
double TrainingThroughput(const ModelProfile& m, SmRate s, int workers);

/**
 * Throughput in the profile's natural unit (images/s or tokens/s):
 * samples/s * samples_per_unit.
 */
double TrainingThroughputUnits(const ModelProfile& m, SmRate s, int workers);

/**
 * Cold-start duration for launching an instance of `m`: container
 * startup plus loading param_gb of weights at `load_gbps`.
 */
TimeUs ColdStartDuration(const ModelProfile& m, TimeUs container_base,
                         double load_gbps);

/**
 * Kernel blocks launched by one full batch-B iteration, used for token
 * accounting (tokens and kernels are measured in CUDA kernel blocks,
 * Section 4). Defined so a fully-busy GPU executes kBlocksPerQuantum
 * blocks per 5 ms token period.
 */
double BlocksPerIteration(const ModelProfile& m, int batch);

/** GPU capacity in kernel blocks per token period (whole device). */
constexpr double kBlocksPerQuantum = 1000.0;

}  // namespace dilu::models

#endif  // DILU_MODELS_COST_MODEL_H_
