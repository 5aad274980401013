/**
 * @file
 * Core value types shared across all Dilu subsystems.
 *
 * Time is simulated and measured in integer microseconds (`TimeUs`).
 * GPU compute shares ("SM rates" in the paper) are fractions in [0, 1]
 * of a whole device, matching the paper's shift from discrete GPU counts
 * to continuous decimals (Section 3.4).
 */
#ifndef DILU_COMMON_TYPES_H_
#define DILU_COMMON_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace dilu {

/** Simulated time in microseconds since simulation start. */
using TimeUs = std::int64_t;

/** Convenience constructors for readable durations. */
constexpr TimeUs Us(std::int64_t v) { return v; }
constexpr TimeUs Ms(std::int64_t v) { return v * 1000; }
constexpr TimeUs Sec(std::int64_t v) { return v * 1000 * 1000; }

/** Convert simulated time to floating-point milliseconds / seconds. */
constexpr double ToMs(TimeUs t) { return static_cast<double>(t) / 1e3; }
constexpr double ToSec(TimeUs t) { return static_cast<double>(t) / 1e6; }

/**
 * The RCKM token-issuing period (Section 3.4.1: the Interception Library
 * asks for tokens from the RCKM server periodically, e.g. 5 ms).
 * The GPU simulator also advances contention accounting at this quantum.
 */
constexpr TimeUs kTokenPeriodUs = Ms(5);

/**
 * Upper bound on representable simulated time (~31.7 years). ParseTime
 * rejects anything beyond it, and Simulation::RunFor saturates at it,
 * so `now + duration` arithmetic on parsed times can never wrap TimeUs.
 */
constexpr TimeUs kTimeCapUs = Sec(1000000000);  // 1e9 s

/**
 * A GPU compute share: fraction of a device's SMs in [0, 1].
 * The paper expresses these as SM rates (SMR), e.g. 30% = 0.30.
 */
using SmRate = double;

/** Unique id of a deployed function (a model + task-type + QoS bundle). */
using FunctionId = std::int32_t;

/** Unique id of a running function instance (container analogue). */
using InstanceId = std::int32_t;

/** Unique id of a physical GPU in the cluster. */
using GpuId = std::int32_t;

/** Unique id of a cluster node (server hosting several GPUs). */
using NodeId = std::int32_t;

constexpr FunctionId kInvalidFunction = -1;
constexpr InstanceId kInvalidInstance = -1;
constexpr GpuId kInvalidGpu = -1;

/**
 * Health of a GPU (and, by aggregation, of a node) in the simulated
 * fleet. `kUp` devices accept new placements; `kDegraded` devices lost
 * part of their compute (partial SM loss) or straggle (latency
 * inflation) but stay schedulable at reduced effective capacity;
 * `kDraining` devices keep serving resident instances but refuse new
 * ones (maintenance drain); `kDown` devices have failed — their
 * instances are killed and re-placed by the recovery pipeline (see
 * docs/FAULT_MODEL.md).
 */
enum class GpuHealth {
  kUp,
  kDegraded,
  kDraining,
  kDown,
};

/** Human-readable health name. */
inline const char* ToString(GpuHealth h) {
  switch (h) {
    case GpuHealth::kUp: return "up";
    case GpuHealth::kDegraded: return "degraded";
    case GpuHealth::kDraining: return "draining";
    case GpuHealth::kDown: return "down";
  }
  return "?";
}

/** Task type of a DL function. Inference tasks are SLO-sensitive. */
enum class TaskType {
  kInference,
  kTraining,
};

/** Human-readable task type name. */
inline const char* ToString(TaskType t) {
  return t == TaskType::kInference ? "inference" : "training";
}

/**
 * Admission service class of a function (docs/OVERLOAD.md). Under
 * cluster pressure the gateway brownout sheds strictly lowest-class
 * first: `kBestEffort` degrades early, `kStandard` only near
 * saturation, `kCritical` is never brownout-shed (it can still hit its
 * own queue cap). Orthogonal to FunctionSpec::priority, which is the
 * GPU-sharing (TGS) priority.
 */
enum class ServiceClass {
  kCritical,
  kStandard,
  kBestEffort,
};

/** Spec-format keyword for a service class (e.g. "best_effort"). */
inline const char* ToString(ServiceClass c) {
  switch (c) {
    case ServiceClass::kCritical: return "critical";
    case ServiceClass::kStandard: return "standard";
    case ServiceClass::kBestEffort: return "best_effort";
  }
  return "?";
}

/** Parse a service-class keyword; false on unknown input. */
inline bool ParseServiceClass(std::string_view s, ServiceClass* out) {
  if (s == "critical") {
    *out = ServiceClass::kCritical;
    return true;
  }
  if (s == "standard") {
    *out = ServiceClass::kStandard;
    return true;
  }
  if (s == "best_effort") {
    *out = ServiceClass::kBestEffort;
    return true;
  }
  return false;
}

/**
 * The paper's <request, limit> SM quota pair (Table 1).
 *
 * `request` is the minimum compute share that still meets QoS (80% of
 * exclusive training throughput, or the inference SLO); `limit` is the
 * cost-effective ceiling used to absorb bursts. Dilu is distinguished
 * from MPS by allowing request != limit and by adjusting the actually
 * issued share between the two at runtime.
 */
struct SmQuota {
  SmRate request = 0.0;
  SmRate limit = 0.0;
};

}  // namespace dilu

#endif  // DILU_COMMON_TYPES_H_
