/**
 * @file
 * Cluster node: a server hosting several GPUs (the testbed uses 5
 * workers x 4 A100s; the large-scale simulation 1000 nodes x 4 GPUs).
 */
#ifndef DILU_CLUSTER_NODE_H_
#define DILU_CLUSTER_NODE_H_

#include <vector>

#include "common/types.h"

namespace dilu::cluster {

/**
 * Description of one node. A node-level fault (power loss, NIC death,
 * maintenance drain) applies the same transition to every device it
 * hosts. The authoritative per-GPU health used by placement lives in
 * scheduler::ClusterState; `health` records the last node-level action
 * (fail, recover, drain, undrain). It gates UndrainNode, which lifts
 * only a drain; RecoverNode heals by per-GPU health instead, so it
 * also repairs per-GPU faults on a node marked up.
 */
struct Node {
  NodeId id = 0;
  std::vector<GpuId> gpus;
  GpuHealth health = GpuHealth::kUp;
};

}  // namespace dilu::cluster

#endif  // DILU_CLUSTER_NODE_H_
