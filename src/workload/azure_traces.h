/**
 * @file
 * Synthetic Azure-Functions-style trace archetypes.
 *
 * The paper evaluates horizontal scaling against three typical patterns
 * from Azure Functions' production traces ("Serverless in the Wild"),
 * following INFless: Bursty, Sporadic and Periodic. Production traces
 * are unavailable offline, so we generate per-second RPS envelopes with
 * the same qualitative structure (a substitution recorded here):
 *
 * - Bursty: a modest base rate with occasional multi-x surges lasting
 *   tens of seconds (Fig 12's workload; the Fig 8a "scaling factor of
 *   the initial burst" knob is `burst_scale`).
 * - Periodic: a smooth diurnal-style sinusoid.
 * - Sporadic: long silences punctuated by short low-rate activity (the
 *   keep-alive-waste workload of Observation-3).
 */
#ifndef DILU_WORKLOAD_AZURE_TRACES_H_
#define DILU_WORKLOAD_AZURE_TRACES_H_

#include <vector>

#include "common/random.h"
#include "common/types.h"

namespace dilu::workload {

/** Parameters shared by all archetype builders. */
struct TraceSpec {
  int duration_s = 600;     ///< envelope length in seconds
  double base_rps = 10.0;   ///< steady-state request rate
  std::uint64_t seed = 7;   ///< archetype-local RNG seed
};

/** Bursty archetype knobs. */
struct BurstySpec : TraceSpec {
  double burst_scale = 4.0;  ///< peak = base * scale (Fig 8a: 4 or 6)
  int burst_len_s = 30;      ///< duration of each surge
  int burst_gap_s = 90;      ///< mean gap between surges
};

/** Periodic archetype knobs. */
struct PeriodicSpec : TraceSpec {
  double amplitude = 0.8;    ///< swing as a fraction of base
  int period_s = 120;        ///< oscillation period
};

/** Sporadic archetype knobs. */
struct SporadicSpec : TraceSpec {
  double active_fraction = 0.15;  ///< fraction of seconds with traffic
  int spike_len_s = 8;            ///< length of each active episode
};

/** Per-second RPS envelope for the bursty archetype. */
std::vector<double> BuildBurstyTrace(const BurstySpec& spec);

/** Per-second RPS envelope for the periodic archetype. */
std::vector<double> BuildPeriodicTrace(const PeriodicSpec& spec);

/** Per-second RPS envelope for the sporadic archetype. */
std::vector<double> BuildSporadicTrace(const SporadicSpec& spec);

/** Names usable in benches/tables. */
enum class TraceKind { kBursty, kPeriodic, kSporadic };
const char* ToString(TraceKind k);

/** Dispatch on kind with default archetype knobs. */
std::vector<double> BuildTrace(TraceKind kind, const TraceSpec& spec);

}  // namespace dilu::workload

#endif  // DILU_WORKLOAD_AZURE_TRACES_H_
