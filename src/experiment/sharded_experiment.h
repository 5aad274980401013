/**
 * @file
 * Former name of the sharded driver, kept for perfbench/ — its only
 * includer, which is frozen as the benchmark's source. Experiment is
 * the one driver at every shard count; new code includes
 * "experiment/experiment.h" and uses it directly.
 */
#ifndef DILU_EXPERIMENT_SHARDED_EXPERIMENT_H_
#define DILU_EXPERIMENT_SHARDED_EXPERIMENT_H_

#include "experiment/experiment.h"

namespace dilu::experiment {

using ShardedExperiment = Experiment;

}  // namespace dilu::experiment

#endif  // DILU_EXPERIMENT_SHARDED_EXPERIMENT_H_
