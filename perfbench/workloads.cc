#include "workloads.h"

#include <cstdio>
#include <string>

namespace perfbench {
namespace {

const Workload kWorkloads[] = {
    {"churn_fleet", true},
    {"dense_mix", false},
};

/** A served model and its profiled per-instance capacity (req/s). */
struct Model {
  const char* name;
  double capacity;
};

// FunctionSpec::per_instance_rps as the profiler fills it on deploy.
const Model kResnet{"resnet152", 162.6};
const Model kVgg{"vgg19", 283.4};
const Model kBert{"bert-base", 696.7};

std::string
Fmt(const char* fmt, double a, double b = 0, double c = 0)
{
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/**
 * A 4,096-GPU fleet serving 64 lazily autoscaled functions. Each
 * function carries a Poisson base load at 0.35x one instance's
 * capacity plus two staggered Poisson bursts that push it past
 * capacity for 30-38 s (>= 20 of the scaler's 40 window samples), so
 * it scales out with a cold start pulled through the registry NIC; the
 * 45-55 s gap between bursts outlasts the 30-sample scale-in vote, so
 * it scales back in before the next burst. Most functions burst to
 * 1.15x, which vertical headroom absorbs without shedding; every
 * eighth is best_effort and bursts to 2x, so its bounded queue sheds
 * (a shed count that does not hinge on timing). Four checkpointing
 * training jobs keep the storage tier and the training metrics live.
 */
std::string
ChurnSpec(std::uint64_t seed)
{
  constexpr int kFunctions = 64;
  constexpr int kBaseSeconds = 170;
  std::string out = "experiment churn_fleet\n";
  out += "cluster nodes=512 gpus_per_node=8 seed=" + std::to_string(seed)
       + "\n";
  out += "storage devices=16\n";
  for (int f = 0; f < kFunctions; ++f) {
    const Model& m = f % 2 ? kVgg : kResnet;
    out += std::string("deploy model=") + m.name
         + " provision=1 scaler=dilu-lazy"
         + (f % 8 == 0 ? " class=best_effort" : "") + " queue_cap="
         + std::to_string(static_cast<int>(m.capacity / 2)) + "\n";
  }
  for (int j = 0; j < 4; ++j) {
    out += "deploy model=resnet152 training workers=1 "
           "checkpoint_every=20s\n";
  }
  for (int f = 0; f < kFunctions; ++f) {
    const Model& m = f % 2 ? kVgg : kResnet;
    out += "workload fn=" + std::to_string(f)
         + Fmt(" poisson rps=%.1f for %.0fs\n", 0.35 * m.capacity,
               kBaseSeconds);
    // Staggered by function index: phases 5-35 s, bursts 30-38 s,
    // gaps 45-55 s.
    const int len = 30 + f * 5 % 9;
    const int gap = 45 + f * 7 % 11;
    for (int start = 5 + f * 13 % 31, burst = 0; burst < 2;
         start += len + gap, ++burst) {
      out += "workload fn=" + std::to_string(f)
           + Fmt(" poisson rps=%.1f start=%.0fs for %.0fs\n",
                 (f % 8 == 0 ? 1.65 : 0.8) * m.capacity, start, len);
    }
  }
  out += Fmt("run for %.0fs\n", kBaseSeconds + 10);
  return out;
}

/**
 * A 32-GPU fleet kept occupied: nine checkpointing training jobs
 * (fourteen workers) writing through two shared storage devices,
 * collocated with 18 inference functions of two provisioned instances
 * each under Poisson load. Node 2 fails and recovers mid-run; a fixed
 * node keeps the displaced set the same for every seed.
 */
std::string
DenseSpec(std::uint64_t seed)
{
  constexpr int kFunctions = 18;
  constexpr int kSeconds = 130;
  std::string out = "experiment dense_mix\n";
  out += "cluster nodes=8 gpus_per_node=4 seed=" + std::to_string(seed)
       + "\n";
  out += "storage devices=2\n";
  for (int j = 0; j < 5; ++j) {
    out += "deploy model=vgg19 training workers=2 checkpoint_every=15s\n";
  }
  for (int j = 0; j < 4; ++j) {
    out += "deploy model=resnet152 training workers=1 "
           "checkpoint_every=15s\n";
  }
  const Model* models[] = {&kResnet, &kVgg, &kBert};
  for (int f = 0; f < kFunctions; ++f) {
    const Model& m = *models[f % 3];
    out += std::string("deploy model=") + m.name
         + " provision=2 queue_cap=" + std::to_string(
               static_cast<int>(m.capacity / 4))
         + "\n";
  }
  for (int f = 0; f < kFunctions; ++f) {
    const Model& m = *models[f % 3];
    double rps = 0.6 * 2 * m.capacity;
    if (rps > 150) rps = 150;
    out += "workload fn=" + std::to_string(9 + f)
         + Fmt(" poisson rps=%.1f for %.0fs\n", rps, kSeconds);
  }
  out += "chaos at 45s fail_node 2\n";
  out += "chaos at 75s recover_node 2\n";
  out += Fmt("run for %.0fs\n", kSeconds + 10);
  return out;
}

}  // namespace

const Workload*
FindWorkload(const std::string& name)
{
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string
WorkloadNames()
{
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ' ';
    out += w.name;
  }
  return out;
}

std::string
SpecText(const Workload& w, std::uint64_t seed)
{
  return w.churn ? ChurnSpec(seed) : DenseSpec(seed);
}

}  // namespace perfbench
