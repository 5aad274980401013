/**
 * @file
 * The benchmark's workloads: seeded experiment-spec generators plus
 * what each workload must exercise (checked after every run).
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/** One benchmark workload. */
struct Workload {
  const char* name;
  /** Sparse churn fleet (true) or dense collocation (false). */
  bool churn;
};

/** The workload called `name`, or nullptr. */
const Workload* FindWorkload(const std::string& name);

/** Space-separated workload names, for usage messages. */
std::string WorkloadNames();

/**
 * The experiment spec text of `w` under `seed`. The seed becomes the
 * cluster seed, from which every arrival stream, retry jitter and
 * per-shard seed derives. The schedule itself (burst phases, the failed
 * node) is fixed, so seeds differ in arrival noise, not in workload
 * shape, and the simulated metrics of two seeds stay comparable.
 */
std::string SpecText(const Workload& w, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
