/**
 * @file
 * Cold-start cost model: launching a DL function instance pays a
 * container-startup base plus model-weight loading time. Large models
 * (LLaMA2-7B: ~12.6 GB) therefore take ~10 s+ to appear — the "slow and
 * bulky deployment" that makes eager horizontal-only scaling violate
 * SLOs and that Dilu's fast vertical scaling bridges.
 */
#ifndef DILU_SCALING_COLDSTART_H_
#define DILU_SCALING_COLDSTART_H_

#include "common/types.h"
#include "models/model_catalog.h"

namespace dilu::scaling {

/** Container bring-up before weight loading starts: DL function
 *  containers bundle PyTorch/transformers runtimes; the paper calls
 *  their deployment "slow and bulky" — several seconds of it. */
constexpr TimeUs kContainerBase = Ms(6000);
/** Weight loading bandwidth (GB/s). */
constexpr double kLoadGbps = 0.8;

/** Total cold-start duration for `model`. */
TimeUs ColdDuration(const models::ModelProfile& model);

/**
 * Duration for a pre-warmed launch (weights cached in host memory):
 * INFless-style layered caches cut the load phase substantially.
 */
TimeUs WarmDuration(const models::ModelProfile& model);

}  // namespace dilu::scaling

#endif  // DILU_SCALING_COLDSTART_H_
